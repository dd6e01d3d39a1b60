"""Curvature classification, regime comparison, neutrality, closed form."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from conflictnet import (
    BracketFailure,
    CaraProduction,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    PreconditionViolation,
    RatioProduction,
    SemiSymmetricStructure,
    check_semi_symmetry,
    compare_regimes,
    generate_simplex,
    generate_triangle,
    neutrality_check,
    solve_de,
    solve_ue,
    tullock_closed_form_total,
)
from conflictnet import analysis, cli, rootfind
from conflictnet.cli import main

from conftest import BENCHMARK_PRODUCTIONS, random_structure, triangle_structure


# ---------------------------------------------------------------------------
# Curvature labels
# ---------------------------------------------------------------------------

def sampled_curvature(pf, domain=(1e-2, 1e1), samples=128, tol=1e-9):
    """Signs of h's midpoint defects over every pair of a log-spaced grid.

    ``"convex"``, ``"concave"``, ``"flat"`` or ``"mixed"``: the signs of the
    defects ``h((a+b)/2) - (h(a)+h(b))/2`` beyond ``tol`` relative to the
    chord, negative for convex h.  The library samples nothing: these
    tests hold each built-in family's label against the sample.
    """
    lo, hi = domain
    xs = np.geomspace(lo, hi, samples)
    h_vals = np.array([pf.h(float(x)) for x in xs])
    upper = np.triu_indices(samples, k=1)
    mids = ((xs[:, None] + xs[None, :]) / 2.0)[upper]
    mid_vals = np.array([pf.h(float(m)) for m in mids])
    # An h that overflows to inf gives inf - inf; NaN defects fail every
    # comparison below, so they drop out.
    with np.errstate(invalid="ignore", over="ignore"):
        chords = (h_vals[:, None] + h_vals[None, :])[upper] / 2.0
        defects = mid_vals - chords
        rel = defects / np.maximum(np.abs(chords), 1e-300)
    has_pos = bool(np.any(rel > tol))
    has_neg = bool(np.any(rel < -tol))
    if has_pos and has_neg:
        sampled = "mixed"
    elif has_pos:
        sampled = "concave"
    elif has_neg:
        sampled = "convex"
    else:
        sampled = "flat"
    return sampled


# The sampled defects each analytic label admits.
COMPATIBLE = {
    "linear": {"flat"},
    "convex": {"convex", "flat"},
    "concave": {"concave", "flat"},
}


def test_ratio_h_is_convex():
    pf = RatioProduction(1.0)
    assert pf.h_curvature() == "convex"
    assert sampled_curvature(pf) == "convex"


def test_power_h_is_linear_for_random_parameters():
    rng = np.random.default_rng(3)
    for _ in range(8):
        pf = PowerProduction(A=float(rng.uniform(0.2, 5)), r=float(rng.uniform(0.05, 1)))
        assert pf.h_curvature() == "linear"
        assert sampled_curvature(pf, samples=32) == "flat"


def test_cara_h_is_convex():
    for alpha in (1.0, 0.3):
        pf = CaraProduction(alpha)
        assert pf.h_curvature() == "convex"
        assert sampled_curvature(pf) == "convex"


def test_piecewise_h_is_concave_and_linear_at_unit_exponent():
    pf = PiecewisePowerAffineProduction(2.0, 0.5, 1.0)
    assert pf.h_curvature() == "concave"
    assert sampled_curvature(pf) == "concave"
    degenerate = PiecewisePowerAffineProduction(2.0, 1.0, 1.0)
    assert degenerate.h_curvature() == "linear"
    assert sampled_curvature(degenerate) == "flat"


# Shifts, exponents and kinks at the edges of the families' useful ranges;
# the piecewise kink at 1 lies inside the default domain, the one at 1e3
# outside it.
CURVATURE_PRODUCTIONS = {
    "ratio-c1": RatioProduction(1.0),
    "ratio-c1e-3": RatioProduction(1e-3),
    "ratio-c1e3": RatioProduction(1e3),
    "cara-a1": CaraProduction(1.0),
    "cara-a0.01": CaraProduction(0.01),
    "cara-a30": CaraProduction(30.0),
    "power-r0.5": PowerProduction(2.0, 0.5),
    "power-r0.05": PowerProduction(1.0, 0.05),
    "piecewise-s1": PiecewisePowerAffineProduction(2.0, 0.5, 1.0),
    "piecewise-r0.05": PiecewisePowerAffineProduction(1.0, 0.05, 1.0),
    "piecewise-s1e3": PiecewisePowerAffineProduction(2.0, 0.5, 1e3),
    "piecewise-r1": PiecewisePowerAffineProduction(2.0, 1.0, 1.0),
}
CURVATURE_DOMAINS = [(1e-2, 1e1), (1e-6, 1e-3), (0.5, 2.0), (1e2, 1e4), (1e-6, 1e6)]


@pytest.mark.parametrize("domain", CURVATURE_DOMAINS, ids=str)
@pytest.mark.parametrize("name", sorted(CURVATURE_PRODUCTIONS))
def test_h_curvature_label_admits_the_sampled_defects(name, domain):
    pf = CURVATURE_PRODUCTIONS[name]
    assert sampled_curvature(pf, domain=domain) in COMPATIBLE[pf.h_curvature()]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300], ids=str)
@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
@pytest.mark.parametrize("example", ["triangle", "simplex"])
def test_compare_regimes_h_call_budget(monkeypatch, example, name, scale):
    # The verdict is the family's label, so h is evaluated only by the two
    # solves: their closed-form start and the UE first-order gap.
    pf = BENCHMARK_PRODUCTIONS[name]
    calls = {"h": 0}
    for cls in {type(p) for p in BENCHMARK_PRODUCTIONS.values()}:
        original = cls.h

        def counting(self, x, original=original):
            calls["h"] += 1
            return original(self, x)

        monkeypatch.setattr(cls, "h", counting)
    if example == "triangle":
        network = generate_triangle(5.0 * scale, 72.0 * scale, production=pf)
    else:
        network = generate_simplex(5.0 * scale, 72.0 * scale, 100.0 * scale, production=pf)
    report = compare_regimes(check_semi_symmetry(network))
    assert report.verdict == pf.h_curvature()
    # The most is 66, for ratio and cara on the simplex at prizes x1e300.
    assert calls["h"] <= 66


class _RatioLabelledConcave(RatioProduction):
    def h_curvature(self):
        return "concave"


class _CaraLabelledLinear(CaraProduction):
    def h_curvature(self):
        return "linear"


class _PiecewiseLabelledLinear(PiecewisePowerAffineProduction):
    def h_curvature(self):
        return "linear"


class _RatioWithConcaveKink(RatioProduction):
    """Labelled convex, but h = x (x + 1) - 0.3 max(0, x - 1) bends down at 1."""

    def h(self, x):
        return super().h(x) - 0.3 * max(0.0, x - 1.0)


# Wrong labels, and the domains on which the sample shows them wrong.  They
# keep the label check above honest: a sample that admitted every label
# would pass it whatever the families claim.
HOLD_ONE = {(1e-2, 1e1), (0.5, 2.0), (1e-6, 1e6)}
MISLABELLED_PRODUCTIONS = {
    "mislabelled-ratio-c1": (_RatioLabelledConcave(1.0), set(CURVATURE_DOMAINS)),
    "mislabelled-cara-a0.01": (_CaraLabelledLinear(0.01), set(CURVATURE_DOMAINS)),
    # On (1e-6, 1e-3) only chords longer than adjacent pairs see this
    # curvature above the 1e-9 tolerance.
    "mislabelled-cara-a0.001": (_CaraLabelledLinear(0.001), set(CURVATURE_DOMAINS)),
    # h is linear on either side of the kink at 1, so only the three
    # domains that hold a kink see it.
    "mislabelled-piecewise-s1": (_PiecewiseLabelledLinear(2.0, 0.5, 1.0), HOLD_ONE),
    "kinked-ratio-c1": (_RatioWithConcaveKink(1.0), HOLD_ONE),
}


@pytest.mark.parametrize("domain", CURVATURE_DOMAINS, ids=str)
@pytest.mark.parametrize("name", sorted(MISLABELLED_PRODUCTIONS))
def test_sampled_defects_reject_a_wrong_label_where_they_see_it(name, domain):
    pf, rejected_on = MISLABELLED_PRODUCTIONS[name]
    admitted = sampled_curvature(pf, domain=domain) in COMPATIBLE[pf.h_curvature()]
    assert admitted is (domain not in rejected_on)


def _effort_span(report):
    """The domain the sampled check of h used to cover: the positive DE and
    UE efforts, widened by 2 each way and to at least two decades."""
    span = [x for x in [*report.de.efforts.values(), report.ue.effort] if x > 0]
    lo = max(min(span) / 2.0, rootfind._SMALLEST)
    hi = min(max(span) * 2.0, sys.float_info.max)
    if hi / lo < 1e2:
        center = math.sqrt(lo) * math.sqrt(hi)
        lo = max(center / 10.0, rootfind._SMALLEST)
        hi = min(center * 10.0, sys.float_info.max)
    return lo, hi


@pytest.mark.parametrize("fmt", ["json", "md", "csv"])
@pytest.mark.parametrize("family", ["ratio:1", "power:2,0.5", "cara:1", "piecewise:2,0.5,1"])
@pytest.mark.parametrize("example", ["triangle", "simplex"])
def test_compare_reports_match_all_pairs_reference(monkeypatch, capsys, example, family, fmt):
    # The report prints the family's label.  It prints the same bytes as a
    # report whose verdict is that label where the all-pairs sample over the
    # equilibrium's effort span admits it, and "indeterminate" where not.
    reports = []

    def recording(structure):
        reports.append(compare_regimes(structure))
        return reports[-1]

    monkeypatch.setattr(cli, "compare_regimes", recording)
    argv = ["compare", "--example", example, "--f", family, "--format", fmt]
    assert main(argv) == 0
    got = capsys.readouterr().out
    report = reports[0]
    pf = report.structure.common_production()
    label = pf.h_curvature()
    sampled = sampled_curvature(pf, domain=_effort_span(report))
    reference = dataclasses.replace(
        report, curvature=label if sampled in COMPATIBLE[label] else "indeterminate"
    )
    monkeypatch.setattr(cli, "compare_regimes", lambda structure: reference)
    assert main(argv) == 0
    assert got == capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CURVATURE_PRODUCTIONS))
@pytest.mark.parametrize("example", ["triangle", "simplex"])
def test_compare_regimes_orders_totals_as_the_label_predicts(example, name):
    pf = CURVATURE_PRODUCTIONS[name]
    if example == "triangle":
        network = generate_triangle(production=pf)
    else:
        network = generate_simplex(production=pf)
    report = compare_regimes(check_semi_symmetry(network))
    assert report.verdict == pf.h_curvature()
    assert report.theorem_consistent is True
    assert report.ordering in {
        "convex": {"<", "="}, "concave": {">", "="}, "linear": {"="},
    }[report.verdict]


def test_compare_with_overflowing_h_is_convex_without_warnings(capsys):
    argv = ["compare", "--example", "triangle", "--f", "cara:5", "--v", "1e300,3e300"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "convex"
    network = generate_triangle(1e300, 3e300, production=CaraProduction(5.0))
    report = compare_regimes(check_semi_symmetry(network))
    assert report.verdict == "convex"


# ---------------------------------------------------------------------------
# Regime comparison
# ---------------------------------------------------------------------------

def test_compare_triangle_ratio():
    report = compare_regimes(triangle_structure(RatioProduction(1.0)))
    assert report.verdict == "convex"
    assert report.ue.total == pytest.approx(3.03304, rel=1e-4)
    assert report.de.total == pytest.approx(2.68415, rel=1e-4)
    assert report.ordering == "<"
    assert report.theorem_consistent is True
    assert report.recommendation == "ue"
    assert report.de.payoff > report.ue.payoff


def test_compare_triangle_piecewise():
    report = compare_regimes(
        triangle_structure(PiecewisePowerAffineProduction(2.0, 0.5, 1.0))
    )
    assert report.verdict == "concave"
    assert report.ue.total == pytest.approx(3.05522, rel=1e-3)
    assert report.de.total == pytest.approx(3.6833, rel=1e-3)
    assert report.ordering == ">"
    assert report.theorem_consistent is True
    assert report.recommendation == "de"
    assert report.de.payoff < report.ue.payoff


def test_compare_triangle_power_is_neutral():
    report = compare_regimes(triangle_structure(PowerProduction(2.0, 0.5)))
    assert report.verdict == "linear"
    assert report.ordering == "="
    assert report.effort_gap <= 1e-8
    assert report.theorem_consistent is True
    assert report.recommendation == "indifferent"


def test_compare_triangle_cara():
    report = compare_regimes(triangle_structure(CaraProduction(1.0)))
    assert report.verdict == "convex"
    assert report.de.total <= report.ue.total
    assert report.theorem_consistent is True


def test_compare_abstains_for_mixed_families_but_not_mixed_powers():
    mixed = SemiSymmetricStructure(
        sizes=(2, 3),
        degrees={2: 2, 3: 1},
        prizes={2: 5.0, 3: 72.0},
        productions={2: RatioProduction(1.0), 3: CaraProduction(1.0)},
        cost=PowerCost(1.0, 2.0),
    )
    report = compare_regimes(mixed)
    assert report.curvature is None
    assert report.theorem_consistent is None
    assert report.recommendation is None

    powers = SemiSymmetricStructure(
        sizes=(2, 3),
        degrees={2: 2, 3: 1},
        prizes={2: 5.0, 3: 72.0},
        productions={2: PowerProduction(1.0, 0.4), 3: PowerProduction(1.0, 0.9)},
        cost=PowerCost(1.0, 2.0),
    )
    report = compare_regimes(powers)
    assert report.curvature is None
    assert report.ordering == "="
    assert report.theorem_consistent is True
    assert report.recommendation == "indifferent"


def test_comparison_report_serializes():
    report = compare_regimes(triangle_structure(RatioProduction(1.0)))
    doc = report.to_dict()
    assert doc["verdict"] == "convex"
    assert doc["ordering"] == "<"
    assert doc["X_ue"] == pytest.approx(3.03304, rel=1e-4)
    assert len(doc["gaps"]) == 2


@pytest.mark.parametrize("family,expected", [
    ("ratio", "<"),
    ("cara", "<"),
    ("piecewise", ">"),
])
def test_random_structures_follow_curvature_ordering(family, expected):
    rng = np.random.default_rng(hash(family) % 2**32)
    for _ in range(10):
        report = compare_regimes(random_structure(rng, family))
        assert report.theorem_consistent is True
        assert report.ordering in (expected, "=")


# ---------------------------------------------------------------------------
# Neutrality
# ---------------------------------------------------------------------------

def test_power_families_are_neutral_on_random_prize_grids():
    rng = np.random.default_rng(9)
    base = triangle_structure(PowerProduction(1.0, float(rng.uniform(0.1, 1.0))))
    grid = [
        {2: float(rng.uniform(0.1, 100)), 3: float(rng.uniform(0.1, 100))}
        for _ in range(50)
    ]
    report = neutrality_check(base, grid)
    assert report.neutral
    assert report.max_gap <= 1e-6


def test_neutrality_tolerance_sits_above_the_root_finder_tolerance():
    # Every DE/UE comparison solves at rootfind.REL_TOL, so root-finding
    # error alone cannot push a gap past NEUTRALITY_TOL.
    assert analysis.NEUTRALITY_TOL >= 10 * rootfind.REL_TOL


def test_ratio_family_is_not_neutral_at_benchmark_prizes():
    report = neutrality_check(triangle_structure(RatioProduction(1.0)), [(5.0, 72.0)])
    assert not report.neutral
    assert report.max_gap >= 0.1
    assert report.worst_prizes == {2: 5.0, 3: 72.0}
    assert report.worst_de_total == pytest.approx(2.68415, rel=1e-4)
    assert report.worst_ue_total == pytest.approx(3.03304, rel=1e-4)


def test_cara_family_is_not_neutral_somewhere():
    report = neutrality_check(triangle_structure(CaraProduction(1.0)), [(5.0, 72.0)])
    assert not report.neutral
    assert report.max_gap > 1e-6


def test_size_indexed_powers_are_neutral_on_the_simplex_structure():
    rng = np.random.default_rng(21)
    structure = SemiSymmetricStructure(
        sizes=(2, 3, 4),
        degrees={2: 2, 3: 3, 4: 1},
        prizes={2: 1.0, 3: 1.0, 4: 1.0},
        productions={
            k: PowerProduction(1.0, float(rng.uniform(0.1, 1.0))) for k in (2, 3, 4)
        },
        cost=PowerCost(1.0, 2.0),
    )
    grid = [
        tuple(float(v) for v in rng.uniform(0.1, 100.0, size=3)) for _ in range(20)
    ]
    report = neutrality_check(structure, grid)
    assert report.neutral


@pytest.mark.parametrize("entry", [
    {2: 1.0}, {2: 1.0, 3: 2.0, 4: 5.0}, {2.7: 5.0, 3: 72.0}, {2: 5.0, "2": 6.0, 3: 72.0},
])
def test_neutrality_entries_must_name_exactly_the_structure_sizes(entry):
    with pytest.raises(ValueError, match="do not match sizes"):
        neutrality_check(triangle_structure(PowerProduction(1.0, 1.0)), [entry])


def test_neutrality_entries_may_name_sizes_by_their_digits():
    structure = triangle_structure(RatioProduction(1.0))
    by_digits = neutrality_check(structure, [{"2": 5.0, "3": 72.0}])
    assert by_digits == neutrality_check(structure, [(5.0, 72.0)])
    assert by_digits.worst_prizes == {2: 5.0, 3: 72.0}


@pytest.mark.parametrize("entry", ["57", b"57"], ids=["str", "bytes"])
def test_a_text_neutrality_entry_is_not_read_as_prizes(entry):
    with pytest.raises(ValueError, match="is text, not a prize per size"):
        neutrality_check(triangle_structure(RatioProduction(1.0)), [entry])


@pytest.mark.parametrize("prize", [0.0, -1.0, math.inf, math.nan, True, "5"])
@pytest.mark.parametrize("mapping", [False, True], ids=["sequence", "mapping"])
def test_neutrality_entries_must_hold_positive_finite_prizes(prize, mapping):
    entry = {2: 1.0, 3: prize} if mapping else (1.0, prize)
    with pytest.raises(ValueError, match=r"^prize v_3 must be positive and finite$"):
        neutrality_check(triangle_structure(RatioProduction(1.0)), [(5.0, 72.0), entry])


def test_neutrality_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        neutrality_check(triangle_structure(PowerProduction(1.0, 1.0)), [])


def test_neutrality_streams_a_one_shot_grid_and_counts_what_it_read(monkeypatch):
    structure = triangle_structure(RatioProduction(1.0))
    points = [(5.0, 72.0), {2: 10.0, 3: 20.0}, (72.0, 5.0)]
    solved, solved_before_read = [], []
    solve_totals = analysis._solve_totals

    def counting(*args, **kwargs):
        solved.append(1)
        return solve_totals(*args, **kwargs)

    def one_shot():
        for point in points:
            solved_before_read.append(len(solved))
            yield point

    monkeypatch.setattr(analysis, "_solve_totals", counting)
    report = neutrality_check(structure, one_shot())
    # Each point is solved before the next is read.
    assert solved_before_read == [0, 1, 2]
    assert report.grid_size == len(points)
    assert report == neutrality_check(structure, points)
    with pytest.raises(ValueError, match="empty"):
        neutrality_check(structure, iter(()))


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_closed_form_simplex_formula():
    rng = np.random.default_rng(17)
    v = {k: float(rng.uniform(0.1, 100)) for k in (2, 3, 4)}
    r = {k: float(rng.uniform(0.1, 1.0)) for k in (2, 3, 4)}
    structure = SemiSymmetricStructure(
        sizes=(2, 3, 4),
        degrees={2: 2, 3: 3, 4: 1},
        prizes=v,
        productions={k: PowerProduction(1.0, r[k]) for k in (2, 3, 4)},
        cost=PowerCost(1.0, 2.0),
    )
    expected = math.sqrt(
        v[2] * r[2] / 2 + 2 * v[3] * r[3] / 3 + 3 * v[4] * r[4] / 16
    )
    assert tullock_closed_form_total(structure) == pytest.approx(expected, rel=1e-12)
    assert solve_de(structure).total == pytest.approx(expected, rel=1e-8)
    assert solve_ue(structure).total == pytest.approx(expected, rel=1e-8)


def test_closed_form_triangle_value():
    structure = triangle_structure(PowerProduction(2.0, 0.5))
    assert tullock_closed_form_total(structure) == pytest.approx(
        math.sqrt(9.25), rel=1e-12
    )


def test_closed_form_single_battle():
    structure = SemiSymmetricStructure(
        sizes=(2,),
        degrees={2: 1},
        prizes={2: 1.0},
        productions={2: PowerProduction(1.0, 1.0)},
        cost=PowerCost(1.0, 2.0),
    )
    assert tullock_closed_form_total(structure) == pytest.approx(0.5)


def test_closed_form_preconditions():
    quad = triangle_structure(PowerProduction(1.0, 0.5))
    cubic = SemiSymmetricStructure(
        sizes=quad.sizes,
        degrees=dict(quad.degrees),
        prizes=dict(quad.prizes),
        productions=dict(quad.productions),
        cost=PowerCost(1.0, 3.0),
    )
    # Every power cost has the closed form kappa X^p = sum_k d_k r_k v_k
    # (k-1)/k^2; only a production that is not a power function is refused.
    assert tullock_closed_form_total(cubic) == pytest.approx(9.25 ** (1 / 3), rel=1e-12)
    with pytest.raises(PreconditionViolation, match="power"):
        tullock_closed_form_total(triangle_structure(RatioProduction(1.0)))


ORACLE_STRUCTURE = SemiSymmetricStructure(
    sizes=(2, 3, 4),
    degrees={2: 2, 3: 3, 4: 1},
    prizes={2: 5.0, 3: 72.0, 4: 100.0},
    productions={
        2: PowerProduction(2.0, 0.3), 3: PowerProduction(1.0, 0.7), 4: PowerProduction(0.5, 1.0)
    },
    cost=PowerCost(1.0, 2.0),
)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kappa", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_closed_form_is_the_exact_total_for_every_power_cost(p, kappa, scale):
    structure = SemiSymmetricStructure(
        sizes=ORACLE_STRUCTURE.sizes,
        degrees=dict(ORACLE_STRUCTURE.degrees),
        prizes={k: v * scale for k, v in ORACLE_STRUCTURE.prizes.items()},
        productions=dict(ORACLE_STRUCTURE.productions),
        cost=PowerCost(kappa, p),
    )
    weight = sum(
        structure.degrees[k] * structure.productions[k].r * (k - 1) / k**2 * v
        for k, v in ORACLE_STRUCTURE.prizes.items()
    )
    log_total = (math.log(weight) + math.log(scale) - math.log(kappa)) / p
    oracle = tullock_closed_form_total(structure)
    if not -708.0 < log_total < 709.0:
        # Past the float range the closed form is 0 or inf, and both
        # solvers fail.
        assert oracle in (0.0, math.inf)
        for solve in (solve_de, solve_ue):
            with pytest.raises(BracketFailure):
                solve(structure)
        return
    assert oracle == pytest.approx(math.exp(log_total), rel=1e-12, abs=0.0)
    assert solve_de(structure).total == pytest.approx(oracle, rel=1e-9, abs=0.0)
    assert solve_ue(structure).total == pytest.approx(oracle, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("r,cost,prizes", [
    # C'(inf) is NaN, as kappa^(1/(p-1)) underflows to 0.
    (0.5, PowerCost(1e-300, 1.5), (5e300, 7e300, 9e300)),
    # C'(inf) = kappa is finite, and the UE root lies where n x overflows.
    (1.0, PowerCost(1e-300, 1.0), (2e8, 2e8, 2e8)),
], ids=["nan-marginal-cost", "linear-cost"])
def test_an_equilibrium_past_the_float_range_is_a_bracket_failure_in_both_regimes(
    r, cost, prizes
):
    structure = SemiSymmetricStructure(
        sizes=(2, 3, 4),
        degrees={2: 2, 3: 3, 4: 1},
        prizes=dict(zip((2, 3, 4), prizes)),
        productions={k: PowerProduction(1.0, r) for k in (2, 3, 4)},
        cost=cost,
    )
    for solve in (solve_de, solve_ue):
        with pytest.raises(BracketFailure, match="no upper bracket"):
            solve(structure)


@pytest.mark.parametrize("v", [1e-22, 1e22])
@pytest.mark.parametrize("family", ["ratio", "cara", "piecewise"])
def test_simplex_comparison_holds_at_extreme_prize_scales(family, v):
    network = generate_simplex(v, v, v, production=BENCHMARK_PRODUCTIONS[family])
    report = compare_regimes(check_semi_symmetry(network))
    de = report.de
    assert max(de.residuals.values()) <= 1e-8 * de.marginal_cost
    assert report.theorem_consistent is True
