"""``tests/golden_corpus.py --check`` compares the corpus and writes
nothing; it exits 1 when a file would change."""

import shutil

import pytest

import golden_corpus


@pytest.fixture
def one_case_corpus(tmp_path, monkeypatch):
    """A corpus of one case, copied from the committed one."""
    case = next(golden_corpus.case_names())
    corpus = tmp_path / "golden"
    corpus.mkdir()
    shutil.copy(golden_corpus.CORPUS / f"{case[0]}.txt", corpus)
    monkeypatch.setattr(golden_corpus, "CORPUS", corpus)
    monkeypatch.setattr(golden_corpus, "case_names", lambda: iter([case]))
    return corpus / f"{case[0]}.txt"


def test_check_passes_on_an_unchanged_corpus(one_case_corpus, capsys):
    assert golden_corpus.run_script(["--check"]) == 0
    assert capsys.readouterr().out == "0 corpus files changed (nothing written)\n"


def test_check_reports_a_change_and_writes_nothing(one_case_corpus, capsys):
    text = one_case_corpus.read_text()
    moved = text.replace("exit 0", "exit 3", 1)
    assert moved != text
    one_case_corpus.write_text(moved)
    stale = one_case_corpus.with_name("stale.txt")
    stale.write_text("old\n")
    assert golden_corpus.run_script(["--check"]) == 1
    out = capsys.readouterr().out
    assert f"{one_case_corpus.name}: changed\n  line 2: 'exit 3' -> 'exit 0'\n" in out
    assert "stale.txt: removed\n" in out
    assert out.endswith("2 corpus files changed (nothing written)\n")
    assert one_case_corpus.read_text() == moved
    assert stale.read_text() == "old\n"


def test_a_regeneration_rewrites_what_a_check_reports(one_case_corpus, capsys):
    text = one_case_corpus.read_text()
    one_case_corpus.write_text(text.replace("exit 0", "exit 3", 1))
    assert golden_corpus.run_script([]) == 0
    assert one_case_corpus.read_text() == text
    assert golden_corpus.run_script(["--check"]) == 0


def test_an_unknown_argument_is_refused(one_case_corpus, capsys):
    assert golden_corpus.run_script(["--write"]) == 2
    assert capsys.readouterr().err == "usage: golden_corpus.py [--check]\n"
