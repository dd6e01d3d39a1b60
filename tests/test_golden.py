"""Every golden corpus file is reproduced byte for byte (see
``tests/golden_corpus.py``, which also regenerates the corpus)."""

import json

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


def _runs(text: str) -> dict[str, tuple[int, str]]:
    """Exit code and stdout of each run of a corpus file, by its command."""
    runs = {}
    for run in text.split("=== ")[1:]:
        command, rest = run.split("\n", 1)
        code, rest = rest.split("\n", 1)
        runs[command] = (int(code.removeprefix("exit ")), rest.split("--- stdout\n", 1)[1])
    return runs


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_iterative_runs_agree_with_the_structured_runs(name):
    # Every corpus network is semi-symmetric, so the iterative engine starts
    # at the structured equilibrium and must certify it.
    runs = _runs((CORPUS / f"{name}.txt").read_bytes().decode())
    code, out = runs["solve --input net.json --method iterative"]
    assert code == 0, out
    iterative = json.loads(out.split("--- stderr", 1)[0])
    structured = json.loads(
        runs["solve --input net.json --method semisymmetric"][1].split("--- stderr", 1)[0]
    )
    for regime in ("de", "ue"):
        assert iterative[regime]["converged"] is True
        for total in iterative[regime]["totals"].values():
            assert total == pytest.approx(structured[regime]["total"], rel=1e-9, abs=0.0)
