"""Every golden corpus file is reproduced byte for byte (see
``tests/golden_corpus.py``, which also regenerates the corpus)."""

import pytest

from golden_corpus import CORPUS, case_names, render

CASES = list(case_names())


def test_corpus_holds_every_case_and_nothing_else():
    assert sorted(path.stem for path in CORPUS.glob("*.txt")) == sorted(
        name for name, *_ in CASES
    )


@pytest.mark.parametrize("name,example,family,scale,p", CASES, ids=[c[0] for c in CASES])
def test_reports_match_the_corpus(tmp_path, monkeypatch, name, example, family, scale, p):
    monkeypatch.chdir(tmp_path)
    assert render(example, family, scale, p) == (CORPUS / f"{name}.txt").read_bytes().decode()
