"""The golden corpus: CLI reports pinned byte for byte.

Every case runs ``conflictnet.cli.main`` in process on a network file built
here: the ``triangle`` and ``simplex`` examples, each with one of four
production families, the example's prizes scaled by 1e-300, 1 or 1e300, and
the cost ``X**p / p`` for p in {1, 2, 3}.  Each run records its exit code,
stdout and stderr (and a sweep its CSV), so failing inputs pin their exit
code and error line too.  One corpus file holds the runs of one network;
``tests/test_golden.py`` compares every file byte for byte.

Regenerate after a change that is meant to move outputs::

    PYTHONPATH=src python tests/golden_corpus.py

For each file that changes, the script prints the largest relative change of
any number that moved, and every exit code or line of text that changed.
With ``--check`` it compares the corpus with a fresh render and writes
nothing: it prints the same summary and exits 1 if any file would change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

from conflictnet import (
    CaraProduction,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    RatioProduction,
)
from conflictnet.cli import main
from conflictnet.generators import generate_example
from conflictnet.io import dumps_sorted, network_to_dict
from conflictnet.network import Battle, ConflictNetwork

CORPUS = Path(__file__).resolve().parent / "golden"

EXAMPLES = ("triangle", "simplex")
FAMILIES = {
    "ratio": RatioProduction(1.0),
    "cara": CaraProduction(1.0),
    "power": PowerProduction(2.0, 0.5),
    "piecewise": PiecewisePowerAffineProduction(2.0, 0.5, 1.0),
}
SCALES = {"1e-300": 1e-300, "1": 1.0, "1e300": 1e300}
COST_POWERS = (1, 2, 3)

# Every case reads the network from this file, relative to the working
# directory, so no report holds a temporary path.
NETWORK = "net.json"
SWEEP_SPEC = "sweep.json"
SWEEP_OUTPUT = "sweep.csv"
EXPONENT_SPEC = "exponent_sweep.json"
EXPONENT_OUTPUT = "exponent_sweep.csv"
# The CSV file each sweep spec writes.
SWEEP_OUTPUTS = {SWEEP_SPEC: SWEEP_OUTPUT, EXPONENT_SPEC: EXPONENT_OUTPUT}

# Runs made on every network.
RUNS = (
    ("solve", "--method", "semisymmetric"),
    ("solve", "--method", "iterative"),
    ("compare", "--format", "json"),
    ("compare", "--format", "csv"),
)
# Runs made at the example's own prizes only: a neutrality grid sets every
# prize itself, validate reads no prize, the markdown table rounds what the
# csv table holds, and ``--seed`` without ``--method`` leaves a
# semi-symmetric network to the structured solvers.
UNSCALED_RUNS = (
    ("solve", "--seed", "1"),
    ("compare", "--format", "md"),
    ("neutrality", "--grid", "random:10:seed=3"),
    ("validate", NETWORK),
)
# The prize sweep runs at every prize scale with the quadratic cost only;
# the exponent sweep also at the example's own prizes only.
SWEEP_COST_POWER = 2


def case_names():
    """``(name, example, family, scale, p)`` of every corpus file."""
    for example in EXAMPLES:
        for family in FAMILIES:
            for scale in SCALES:
                for p in COST_POWERS:
                    yield f"{example}-{family}-x{scale}-p{p}", example, family, scale, p


def network(example: str, family: str, scale: str, p: int) -> ConflictNetwork:
    base = generate_example(example, production=FAMILIES[family])
    factor = SCALES[scale]
    battles = tuple(
        Battle(b.id, b.participants, b.prize * factor, b.production) for b in base.battles
    )
    return ConflictNetwork(base.players, battles, PowerCost(1.0, float(p)))


def sweep_spec(example: str, scale: str) -> dict:
    """A 2x2 grid over the size-2 and size-3 prizes at the network's scale."""
    factor = SCALES[scale]
    return {
        "network": NETWORK,
        "output": SWEEP_OUTPUT,
        "axes": [
            {"param": "v2", "min": 1.0 * factor, "max": 10.0 * factor, "steps": 2},
            {"param": "v3", "min": 20.0 * factor, "max": 80.0 * factor, "steps": 2},
        ],
    }


def exponent_sweep_spec() -> dict:
    """A 2x2 grid over the power exponent of every size and the cost
    exponent; it replaces every size's production with a power function."""
    return {
        "network": NETWORK,
        "output": EXPONENT_OUTPUT,
        "axes": [
            {"param": "r", "min": 0.3, "max": 1.0, "steps": 2},
            {"param": "cost_p", "min": 1.5, "max": 3.0, "steps": 2},
        ],
    }


def _run(argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = (
        f"=== {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )
    if argv[0] == "sweep":
        output = SWEEP_OUTPUTS[argv[1]]
        text += f"--- {output}\n{Path(output).read_bytes().decode()}"
    return text


def render(example: str, family: str, scale: str, p: int) -> str:
    """Every run of one network, in order.  The working directory must be
    an empty scratch directory; the network and sweep files go there."""
    Path(NETWORK).write_text(
        dumps_sorted(network_to_dict(network(example, family, scale, p))), encoding="utf-8"
    )
    Path(SWEEP_SPEC).write_text(json.dumps(sweep_spec(example, scale)), encoding="utf-8")
    Path(EXPONENT_SPEC).write_text(json.dumps(exponent_sweep_spec()), encoding="utf-8")
    for output in SWEEP_OUTPUTS.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(output)
    runs = RUNS + (UNSCALED_RUNS if scale == "1" else ())
    if p == SWEEP_COST_POWER:
        runs += (("sweep", SWEEP_SPEC),)
        if scale == "1":
            runs += (("sweep", EXPONENT_SPEC),)
    parts = []
    # The test suite turns RuntimeWarnings into errors; so does a
    # regeneration, so that both record the same thing.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in runs:
            if argv[0] in ("solve", "compare", "neutrality"):
                argv = (argv[0], "--input", NETWORK, *argv[1:])
            parts.append(_run(argv))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Regeneration
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def _numbers(line: str) -> tuple[list[float], str]:
    return [float(m) for m in _NUMBER.findall(line)], _NUMBER.sub("#", line)


def describe_change(old: str, new: str) -> list[str]:
    """The largest relative change of a number that moved, and every line
    whose text, exit code included, changed."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    notes = []
    if len(old_lines) != len(new_lines):
        notes.append(f"line count {len(old_lines)} -> {len(new_lines)}")
    largest, where = 0.0, 0
    for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a == b:
            continue
        (xs, shape_a), (ys, shape_b) = _numbers(a), _numbers(b)
        # A run's command and exit code are text, not numbers.
        if shape_a != shape_b or a.startswith(("===", "exit")):
            notes.append(f"line {i}: {a!r} -> {b!r}")
            continue
        for x, y in zip(xs, ys):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            scale = max(abs(x), abs(y))
            change = abs(x - y) / scale if math.isfinite(scale) else math.inf
            if change > largest:
                largest, where = change, i
    if largest:
        notes.append(f"largest relative change of a number: {largest:.3g} (line {where})")
    return notes


def regenerate(directory: Path, write: bool = True) -> int:
    """Rewrite the corpus, working in ``directory``; returns the number of
    files that changed.  With ``write`` false, only count and describe
    them."""
    if write:
        CORPUS.mkdir(exist_ok=True)
    names = set()
    changed = 0
    home = os.getcwd()
    os.chdir(directory)
    try:
        for name, *case in case_names():
            names.add(name)
            path = CORPUS / f"{name}.txt"
            new = render(*case)
            old = path.read_bytes().decode() if path.exists() else None
            if old == new:
                continue
            changed += 1
            print(f"{path.name}: " + ("new" if old is None else "changed"))
            for note in [] if old is None else describe_change(old, new):
                print(f"  {note}")
            if write:
                path.write_bytes(new.encode())
    finally:
        os.chdir(home)
    for stale in sorted(CORPUS.glob("*.txt")):
        if stale.stem not in names:
            changed += 1
            print(f"{stale.name}: removed")
            if write:
                stale.unlink()
    return changed


def run_script(argv: list[str]) -> int:
    """Regenerate the corpus, or with ``--check`` only compare it; the exit
    code is 1 when a check finds a file that would change."""
    check = argv == ["--check"]
    if argv and not check:
        print("usage: golden_corpus.py [--check]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        changed = regenerate(Path(scratch), write=not check)
    print(f"{changed} corpus files changed" + (" (nothing written)" if check else ""))
    return 1 if check and changed else 0


if __name__ == "__main__":
    sys.exit(run_script(sys.argv[1:]))
