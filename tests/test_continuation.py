"""Continuation-seeded grids: each sweep row and neutrality point starts its
root searches from the point solved before it, and keeps a cold solve's
answer to the solver's tolerance."""

import csv

import numpy as np
import pytest

import conflictnet.equilibrium
from conflictnet import (
    CaraProduction,
    PiecewisePowerAffineProduction,
    PowerProduction,
    RatioProduction,
    check_semi_symmetry,
    generate_simplex,
    generate_triangle,
    neutrality_check,
)
from conflictnet.analysis import _solve_both
from conflictnet.sweep import SweepAxis, SweepSpec, _point_structure, run_sweep

FAMILIES = {
    "ratio": RatioProduction(1.0),
    "cara": CaraProduction(1.0),
    "power": PowerProduction(2.0, 0.5),
    "piecewise": PiecewisePowerAffineProduction(2.0, 0.5, 1.0),
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_gap_evaluations(monkeypatch):
    """Counter of every gap evaluation the structured solvers make."""
    evals = [0]
    brent = conflictnet.equilibrium.brent_increasing

    def counting(g, *args, **kwargs):
        def g_counted(x):
            evals[0] += 1
            return g(x)
        return brent(g_counted, *args, **kwargs)

    monkeypatch.setattr(conflictnet.equilibrium, "brent_increasing", counting)
    return evals


def simplex_prize_spec(family):
    base = check_semi_symmetry(generate_simplex(production=FAMILIES[family]))
    axes = (SweepAxis("v2", 0.1, 100.0, 5), SweepAxis("v3", 1.0, 1000.0, 4))
    return SweepSpec(base=base, axes=axes)


@pytest.mark.parametrize("example,family,axes", [
    ("simplex", "ratio", (("v2", 0.1, 100.0, 5), ("v3", 1.0, 1000.0, 4))),
    ("triangle", "cara", (("v3", 1e-3, 1e3, 7),)),
    ("triangle", "piecewise", (("r", 0.1, 1.0, 10),)),
    ("triangle", "ratio", (("cost_p", 1.0, 4.0, 7),)),
    ("simplex", "piecewise", (("cost_kappa", 0.01, 100.0, 9),)),
    ("triangle", "power", (("cost_kappa", 0.5, 5.0, 3), ("cost_p", 1.5, 3.0, 4))),
])
def test_seeded_sweep_rows_match_cold_solves(tmp_path, example, family, axes):
    network = {"triangle": generate_triangle, "simplex": generate_simplex}[example](
        production=FAMILIES[family]
    )
    spec = SweepSpec(
        base=check_semi_symmetry(network),
        axes=tuple(SweepAxis(*axis) for axis in axes),
    )
    out = tmp_path / "rows.csv"
    assert run_sweep(spec, out) == spec.grid_size
    params = tuple(axis.param for axis in spec.axes)
    for row in read_rows(out):
        values = tuple(float(row[p]) for p in params)
        de, ue, gap = _solve_both(_point_structure(spec.base, params, values))
        assert float(row["X_de"]) == pytest.approx(de.total, rel=1e-9)
        assert float(row["X_ue"]) == pytest.approx(ue.total, rel=1e-9)
        assert float(row["payoff_de"]) == pytest.approx(de.payoff, rel=1e-9)
        assert float(row["payoff_ue"]) == pytest.approx(ue.payoff, rel=1e-9)
        assert float(row["gap"]) == pytest.approx(gap, abs=1e-9)


def test_seeded_prize_sweep_needs_at_most_twelve_evaluations_per_row(tmp_path, monkeypatch):
    # Along a prize axis of a power family the seed is the next root to
    # rounding; a cold solve takes about 17 evaluations per row here.
    evals = count_gap_evaluations(monkeypatch)
    rows = run_sweep(simplex_prize_spec("power"), tmp_path / "rows.csv")
    assert rows == 20
    assert evals[0] <= 12 * rows


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeded_prize_sweep_evaluates_less_than_cold_solves(tmp_path, monkeypatch, family):
    spec = simplex_prize_spec(family)
    params = tuple(axis.param for axis in spec.axes)
    evals = count_gap_evaluations(monkeypatch)
    run_sweep(spec, tmp_path / "rows.csv")
    seeded = evals[0]
    evals[0] = 0
    for row in read_rows(tmp_path / "rows.csv"):
        values = tuple(float(row[p]) for p in params)
        _solve_both(_point_structure(spec.base, params, values))
    assert seeded < evals[0]


def test_resumed_seeded_sweep_equals_an_uninterrupted_one(tmp_path):
    spec = simplex_prize_spec("cara")
    whole = tmp_path / "whole.csv"
    run_sweep(spec, whole)
    lines = whole.read_text().splitlines(keepends=True)
    # Keep the header and 7 rows: the rerun's first point starts cold.
    part = tmp_path / "part.csv"
    part.write_text("".join(lines[:8]))
    assert run_sweep(spec, part) == 13
    expected, resumed = read_rows(whole), read_rows(part)
    assert [(r["v2"], r["v3"]) for r in resumed] == [(r["v2"], r["v3"]) for r in expected]
    for got, want in zip(resumed, expected):
        for column in ("X_de", "X_ue", "payoff_de", "payoff_ue"):
            assert float(got[column]) == pytest.approx(float(want[column]), rel=1e-9)


@pytest.mark.parametrize("family,neutral", [("power", True), ("ratio", False), ("cara", False)])
def test_neutrality_on_a_one_shot_grid_keeps_its_verdict(family, neutral):
    structure = check_semi_symmetry(generate_triangle(production=FAMILIES[family]))
    rng = np.random.default_rng(5)
    points = [tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(100.0), 2)))
              for _ in range(25)]
    report = neutrality_check(structure, (point for point in points))
    cold = [
        _solve_both(structure.with_prizes(dict(zip(structure.sizes, point))))[2]
        for point in points
    ]
    worst = int(np.argmax(cold))
    assert report.neutral is neutral
    assert report.grid_size == len(points)
    assert report.max_gap == pytest.approx(cold[worst], abs=1e-9)
    if not neutral:
        assert report.worst_prizes == dict(zip(structure.sizes, points[worst]))
