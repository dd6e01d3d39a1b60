"""The README's code examples run as written."""

import json
import re
from pathlib import Path

import pytest

from conflictnet import network_from_dict
from conflictnet.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def _json_block(key):
    (doc,) = [doc for doc in map(json.loads, _blocks("json")) if key in doc]
    return doc


def test_python_examples_run_in_order(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["outcome"].converged
    de_total, ue_total = map(float, capsys.readouterr().out.split()[:2])
    assert (de_total, ue_total) == pytest.approx((2.68415, 3.03304), rel=1e-5)


def test_network_json_example_loads():
    network = network_from_dict(_json_block("players"))
    assert network.players == (1, 2)


def test_sweep_spec_example_runs(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(_json_block("axes")), encoding="utf-8")
    output = tmp_path / "rows.csv"
    assert main(["sweep", str(spec), "--output", str(output)]) == 0
    assert "10 rows written" in capsys.readouterr().out
    assert len(output.read_text(encoding="utf-8").splitlines()) == 11
