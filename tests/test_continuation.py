"""Stateless grids and the closed-form start: every sweep row and neutrality
point is solved on its own from the same closed-form start, so a row equals
a fresh solve of its point, a resumed sweep equals an uninterrupted one and
a grid's order does not matter; and every symmetric root stays within a
fixed evaluation budget across the float range."""

import csv

import numpy as np
import pytest

import conflictnet.equilibrium
import conflictnet.general_solver
from conflictnet import (
    Battle,
    CaraProduction,
    ConflictNetwork,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    RatioProduction,
    SemiSymmetricStructure,
    check_semi_symmetry,
    generate_simplex,
    generate_triangle,
    neutrality_check,
    solve_de,
    solve_ue,
)
from conflictnet.sweep import SweepAxis, SweepSpec, run_sweep

FAMILIES = {
    "ratio": RatioProduction(1.0),
    "cara": CaraProduction(1.0),
    "power": PowerProduction(2.0, 0.5),
    "piecewise": PiecewisePowerAffineProduction(2.0, 0.5, 1.0),
}

EXAMPLES = {"triangle": generate_triangle, "simplex": generate_simplex}

RESULT_COLUMNS = ("X_de", "X_ue", "payoff_de", "payoff_ue", "gap")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def evaluations_of_each_root(monkeypatch, module, solve, argument):
    """Gap evaluations of each root ``solve(argument)`` finds in ``module``;
    fails when it finds none there, as after its roots move elsewhere."""
    counts = []
    brent = module.brent_increasing

    def counting(g, *args, **kwargs):
        counts.append(0)

        def g_counted(x):
            counts[-1] += 1
            return g(x)
        return brent(g_counted, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "brent_increasing", counting)
        solve(argument)
    if not counts:
        pytest.fail(f"{getattr(solve, '__name__', solve)} found no root in {module.__name__}")
    return counts


def relative_gap(de, ue):
    return abs(de.total - ue.total) / ue.total


def point_structure(base, params, values):
    """``base`` with every swept parameter set, in axis order, built as a
    validated structure: the reference a sweep row is compared against."""
    prizes, productions, cost = dict(base.prizes), dict(base.productions), base.cost
    for param, value in zip(params, values):
        if param.startswith("v"):
            prizes[int(param[1:])] = value
        elif param.startswith("r"):
            for k in base.sizes if param == "r" else (int(param[1:]),):
                pf = base.productions[k]
                scale = pf.A if isinstance(pf, PowerProduction) else 1.0
                productions[k] = PowerProduction(A=scale, r=value)
        elif param == "cost_p":
            cost = PowerCost(kappa=cost.kappa, p=value)
        else:
            cost = PowerCost(kappa=value, p=cost.p)
    return SemiSymmetricStructure(
        sizes=base.sizes, degrees=dict(base.degrees), prizes=prizes,
        productions=productions, cost=cost,
    )


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
    ("simplex", "cara", (("r3", 0.2, 1.0, 5), ("v4", 0.5, 50.0, 4))),
    ("triangle", "power", (("v2", 1.0, 30.0, 3), ("r", 0.5, 1.0, 2), ("r2", 0.3, 0.9, 4))),
])
def test_seeded_sweep_rows_match_cold_solves(tmp_path, example, family, axes):
    network = EXAMPLES[example](production=FAMILIES[family])
    spec = SweepSpec(
        base=check_semi_symmetry(network),
        axes=tuple(SweepAxis(*axis) for axis in axes),
    )
    out = tmp_path / "rows.csv"
    assert run_sweep(spec, out) == spec.grid_size
    params = tuple(axis.param for axis in spec.axes)
    for row in read_rows(out):
        values = tuple(float(row[p]) for p in params)
        point = point_structure(spec.base, params, values)
        de, ue = solve_de(point), solve_ue(point)
        results = (de.total, ue.total, de.payoff, ue.payoff, relative_gap(de, ue))
        assert tuple(row[c] for c in RESULT_COLUMNS) == tuple(map(repr, results))


# Gap evaluations per row of ``simplex_prize_spec`` (DE and UE together),
# as measured.  Continuation from the previous row took 14.90 (ratio),
# 15.05 (cara), 6.50 (power) and 14.10 (piecewise).
PRIZE_SWEEP_BUDGETS = {"ratio": 15.2, "cara": 15.05, "power": 4.5, "piecewise": 13.45}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_prize_sweep_stays_within_its_evaluation_budget(tmp_path, monkeypatch, family):
    counts = evaluations_of_each_root(
        monkeypatch, conflictnet.equilibrium,
        lambda spec: run_sweep(spec, tmp_path / "rows.csv"), simplex_prize_spec(family),
    )
    assert len(counts) == 2 * 20
    assert sum(counts) <= round(PRIZE_SWEEP_BUDGETS[family] * 20)


def count_gap_evaluations(monkeypatch, cold=False):
    """Counter of every gap evaluation the structured solvers make; with
    ``cold`` each root is bracketed from brent_increasing's default start
    of 1 instead of the closed-form start."""
    evals = [0]
    brent = conflictnet.equilibrium.brent_increasing

    def counting(g, target, rel_tol, seed=None):
        def g_counted(x):
            evals[0] += 1
            return g(x)
        return brent(g_counted, target, rel_tol, None if cold else seed)

    monkeypatch.setattr(conflictnet.equilibrium, "brent_increasing", counting)
    return evals


def test_seeded_prize_sweep_needs_at_most_twelve_evaluations_per_row(tmp_path, monkeypatch):
    # Along a prize axis of a power family the closed-form start is the
    # root to rounding; a cold solve takes about 20 evaluations per row here.
    evals = count_gap_evaluations(monkeypatch)
    rows = run_sweep(simplex_prize_spec("power"), tmp_path / "rows.csv")
    assert rows == 20
    assert evals[0] <= 12 * rows


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeded_prize_sweep_evaluates_less_than_cold_solves(tmp_path, monkeypatch, family):
    spec = simplex_prize_spec(family)
    evals = count_gap_evaluations(monkeypatch)
    run_sweep(spec, tmp_path / "seeded.csv")
    seeded = evals[0]
    monkeypatch.undo()
    evals = count_gap_evaluations(monkeypatch, cold=True)
    run_sweep(spec, tmp_path / "cold.csv")
    assert seeded < evals[0]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grid_points_solve_totals_from_one_start_without_f(tmp_path, monkeypatch, family):
    # A grid point needs neither the residuals nor the UE benefit, which
    # are what call f and f'; both regimes share one closed-form start; and
    # no point builds a structure: only the sweep's two grid ends do.
    calls = dict.fromkeys(("f", "f_prime", "start", "structure"), 0)
    validate = SemiSymmetricStructure.__post_init__

    def counting_structure(self):
        calls["structure"] += 1
        validate(self)

    production = type(FAMILIES[family])
    for name in ("f", "f_prime"):
        def counting(self, x, name=name, method=getattr(production, name)):
            calls[name] += 1
            return method(self, x)
        monkeypatch.setattr(production, name, counting)
    start = conflictnet.equilibrium._closed_form_start

    def counting_start(*args):
        calls["start"] += 1
        return start(*args)
    monkeypatch.setattr(conflictnet.equilibrium, "_closed_form_start", counting_start)
    spec = simplex_prize_spec(family)
    monkeypatch.setattr(SemiSymmetricStructure, "__post_init__", counting_structure)
    assert run_sweep(spec, tmp_path / "rows.csv") == 20
    assert calls == {"f": 0, "f_prime": 0, "start": 20, "structure": 2}
    assert neutrality_check(spec.base, iter(one_shot_points(20, sizes=3))).grid_size == 20
    assert calls == {"f": 0, "f_prime": 0, "start": 40, "structure": 2}


def test_resumed_seeded_sweep_equals_an_uninterrupted_one(tmp_path):
    spec = simplex_prize_spec("cara")
    whole = tmp_path / "whole.csv"
    run_sweep(spec, whole)
    lines = whole.read_bytes().splitlines(keepends=True)
    # Keep the header and 7 rows.
    part = tmp_path / "part.csv"
    part.write_bytes(b"".join(lines[:8]))
    assert run_sweep(spec, part) == 13
    assert part.read_bytes() == whole.read_bytes()


def one_shot_points(count, sizes=2):
    rng = np.random.default_rng(5)
    return [tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(100.0), sizes)))
            for _ in range(count)]


@pytest.mark.parametrize("family,neutral", [("power", True), ("ratio", False), ("cara", False)])
def test_neutrality_on_a_one_shot_grid_keeps_its_verdict(family, neutral):
    structure = check_semi_symmetry(generate_triangle(production=FAMILIES[family]))
    points = one_shot_points(25)
    report = neutrality_check(structure, (point for point in points))
    fresh = []
    for point in points:
        solved = structure.with_prizes(dict(zip(structure.sizes, point)))
        de, ue = solve_de(solved), solve_ue(solved)
        fresh.append((relative_gap(de, ue), de.total, ue.total))
    worst = int(np.argmax([gap for gap, _, _ in fresh]))
    assert report.neutral is neutral
    assert report.grid_size == len(points)
    assert (report.max_gap, report.worst_de_total, report.worst_ue_total) == fresh[worst]
    if not neutral:
        assert report.worst_prizes == dict(zip(structure.sizes, points[worst]))


@pytest.mark.parametrize("family", ["power", "ratio", "cara"])
def test_neutrality_over_a_permuted_grid_gives_the_same_max_gap(family):
    structure = check_semi_symmetry(generate_triangle(production=FAMILIES[family]))
    points = one_shot_points(25)
    shuffled = [points[i] for i in np.random.default_rng(11).permutation(len(points))]
    assert neutrality_check(structure, shuffled).max_gap == neutrality_check(
        structure, points
    ).max_gap


# ---------------------------------------------------------------------------
# Evaluation budget of every symmetric root across the float range
# ---------------------------------------------------------------------------

# Gap evaluations allowed in any one root.  Bracketing from 1 by doubling,
# as the structured solvers did before the closed-form start and the
# galloping bracket, took up to 1,008 at these scales.
ROOT_BUDGET = 32


def scaled_network(example, family, scale, p):
    network = EXAMPLES[example](production=FAMILIES[family])
    battles = tuple(
        Battle(b.id, b.participants, b.prize * scale, b.production) for b in network.battles
    )
    return ConflictNetwork(players=network.players, battles=battles, cost=PowerCost(1.0, p))


@pytest.mark.parametrize("example", sorted(EXAMPLES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_symmetric_root_stays_within_its_evaluation_budget(monkeypatch, example, family):
    counts = {}
    for scale in (1e-300, 1.0, 1e300):
        for p in (1.0, 2.0, 3.0):
            network = scaled_network(example, family, scale, p)
            structure = check_semi_symmetry(network)
            for solve in (solve_de, solve_ue):
                counts[(solve.__name__, scale, p)] = max(evaluations_of_each_root(
                    monkeypatch, conflictnet.equilibrium, solve, structure
                ))
            if scale == 1.0:
                continue
            # The iterative engine's starts solve each player's own battles
            # through the structured engine.
            for start in ("_symmetric_de_start", "_symmetric_ue_start"):
                counts[(start, scale, p)] = max(evaluations_of_each_root(
                    monkeypatch, conflictnet.equilibrium,
                    getattr(conflictnet.general_solver, start), network,
                ))
    over = {key: n for key, n in counts.items() if n > ROOT_BUDGET}
    assert not over
