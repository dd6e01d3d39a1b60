"""Curvature classification, regime comparison, neutrality, closed form."""

import json
import math

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
    classify_h,
    compare_regimes,
    generate_simplex,
    generate_triangle,
    neutrality_check,
    solve_de,
    solve_ue,
    tullock_closed_form_total,
)
from conflictnet import analysis, rootfind
from conflictnet.analysis import CurvatureVerdict
from conflictnet.cli import main

from conftest import BENCHMARK_PRODUCTIONS, random_structure, triangle_structure


# ---------------------------------------------------------------------------
# Curvature classification
# ---------------------------------------------------------------------------

def test_ratio_h_is_convex():
    verdict = classify_h(RatioProduction(1.0))
    assert verdict.verdict == "convex"
    assert verdict.max_signed_defect < 0


def test_power_h_is_linear_for_random_parameters():
    rng = np.random.default_rng(3)
    for _ in range(8):
        pf = PowerProduction(A=float(rng.uniform(0.2, 5)), r=float(rng.uniform(0.05, 1)))
        assert classify_h(pf).verdict == "linear"


def test_cara_h_is_convex():
    assert classify_h(CaraProduction(1.0)).verdict == "convex"
    assert classify_h(CaraProduction(0.3)).verdict == "convex"


def test_piecewise_h_is_concave_and_linear_at_unit_exponent():
    pf = PiecewisePowerAffineProduction(2.0, 0.5, 1.0)
    verdict = classify_h(pf, domain=(1e-2, 1e1))
    assert verdict.verdict == "concave"
    assert verdict.max_signed_defect > 0
    degenerate = PiecewisePowerAffineProduction(2.0, 1.0, 1.0)
    assert classify_h(degenerate).verdict == "linear"


def test_classify_h_preconditions():
    pf = PowerProduction(1.0, 0.5)
    with pytest.raises(ValueError, match="positive interval"):
        classify_h(pf, domain=(-1.0, 1.0))


@pytest.mark.parametrize("domain", [(1e-2, math.inf), (math.nan, 1.0)])
def test_classify_h_rejects_non_finite_domains(domain):
    with pytest.raises(ValueError, match="finite positive interval"):
        classify_h(PowerProduction(1.0, 0.5), domain=domain)


def all_pairs_classify_h(pf, domain=(1e-2, 1e1), samples=128, tol=1e-9):
    """Reference sampler: midpoint defects over every pair of the grid.

    This is the O(samples^2) sampling ``classify_h`` used before it kept
    only adjacent pairs and half-span chords; the verdict rule is the same.
    """
    lo, hi = domain
    xs = np.geomspace(lo, hi, samples)
    h_vals = np.array([pf.h(float(x)) for x in xs])
    upper = np.triu_indices(samples, k=1)
    mids = ((xs[:, None] + xs[None, :]) / 2.0)[upper]
    mid_vals = np.array([pf.h(float(m)) for m in mids])
    # An h that overflows to inf gives inf - inf; NaN defects fail every
    # comparison below, so they drop out as they did in the old sampler.
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
    analytic = pf.h_curvature()
    compatible = {
        "linear": {"flat"},
        "convex": {"convex", "flat"},
        "concave": {"concave", "flat"},
    }[analytic]
    return CurvatureVerdict(
        verdict=analytic if sampled in compatible else "indeterminate",
        max_signed_defect=float(defects[np.argmax(np.abs(rel))]),
    )


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
    """Labelled convex, but h = x (x + 1) - 0.3 max(0, x - 1) bends down at 1.

    Over one grid step around 1 the kink's midpoint defect beats the
    convexity of x (x + 1); over a half-span chord, at least 0.5 long, it
    does not.  So only adjacent pairs see the kink.
    """

    def h(self, x):
        return super().h(x) - 0.3 * max(0.0, x - 1.0)


# Shifts, exponents and kinks at the edges of the families' useful ranges;
# the piecewise kink at 1 lies inside the default domain, the one at 1e3
# outside it.  The mislabelled productions give the sampled defects a wrong
# analytic verdict to veto.
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
    "mislabelled-ratio-c1": _RatioLabelledConcave(1.0),
    "mislabelled-cara-a0.01": _CaraLabelledLinear(0.01),
    # On (1e-6, 1e-3) only chords longer than adjacent pairs see this
    # curvature above the 1e-9 tolerance.
    "mislabelled-cara-a0.001": _CaraLabelledLinear(0.001),
    "mislabelled-piecewise-s1": _PiecewiseLabelledLinear(2.0, 0.5, 1.0),
    # Indeterminate on the three domains that hold the kink.
    "kinked-ratio-c1": _RatioWithConcaveKink(1.0),
}
CURVATURE_DOMAINS = [(1e-2, 1e1), (1e-6, 1e-3), (0.5, 2.0), (1e2, 1e4), (1e-6, 1e6)]


@pytest.mark.parametrize("domain", CURVATURE_DOMAINS, ids=str)
@pytest.mark.parametrize("name", sorted(CURVATURE_PRODUCTIONS))
def test_classify_h_matches_all_pairs_reference(name, domain):
    pf = CURVATURE_PRODUCTIONS[name]
    got = classify_h(pf, domain=domain)
    want = all_pairs_classify_h(pf, domain=domain)
    assert got.verdict == want.verdict
    assert math.isfinite(got.max_signed_defect)


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_classify_h_makes_at_most_319_h_calls(monkeypatch, name):
    # On the default domain h is finite everywhere, so no pair is dropped:
    # 128 grid points, 127 adjacent midpoints and 64 half-span midpoints.
    # Nothing else of the production is evaluated.
    pf = BENCHMARK_PRODUCTIONS[name]
    calls = {method: 0 for method in ("h", "f", "f_prime")}
    for method in calls:
        original = getattr(type(pf), method)

        def counting(self, x, method=method, original=original):
            calls[method] += 1
            return original(self, x)

        monkeypatch.setattr(type(pf), method, counting)
    classify_h(pf)
    assert calls == {"h": 319, "f": 0, "f_prime": 0}


def test_classify_h_drops_non_finite_h_samples():
    # h = expm1(5x)/5 overflows to inf above x of about 142.
    verdict = classify_h(CaraProduction(5.0), domain=(1.0, 300.0))
    assert verdict.verdict == "convex"
    assert math.isfinite(verdict.max_signed_defect)
    assert verdict.max_signed_defect < 0


def test_compare_with_overflowing_h_is_convex_without_warnings(capsys):
    argv = ["compare", "--example", "triangle", "--f", "cara:5", "--v", "1e300,3e300"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "convex"
    network = generate_triangle(1e300, 3e300, production=CaraProduction(5.0))
    report = compare_regimes(check_semi_symmetry(network))
    assert report.curvature.verdict == "convex"
    assert math.isfinite(report.curvature.max_signed_defect)


@pytest.mark.parametrize("fmt", ["json", "md", "csv"])
@pytest.mark.parametrize("family", ["ratio:1", "power:2,0.5", "cara:1", "piecewise:2,0.5,1"])
@pytest.mark.parametrize("example", ["triangle", "simplex"])
def test_compare_reports_match_all_pairs_reference(monkeypatch, capsys, example, family, fmt):
    argv = ["compare", "--example", example, "--f", family, "--format", fmt]
    assert main(argv) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(analysis, "classify_h", all_pairs_classify_h)
    assert main(argv) == 0
    assert got == capsys.readouterr().out


# ---------------------------------------------------------------------------
# Regime comparison
# ---------------------------------------------------------------------------

def test_compare_triangle_ratio():
    report = compare_regimes(triangle_structure(RatioProduction(1.0)))
    assert report.curvature.verdict == "convex"
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
    assert report.curvature.verdict == "concave"
    assert report.ue.total == pytest.approx(3.05522, rel=1e-3)
    assert report.de.total == pytest.approx(3.6833, rel=1e-3)
    assert report.ordering == ">"
    assert report.theorem_consistent is True
    assert report.recommendation == "de"
    assert report.de.payoff < report.ue.payoff


def test_compare_triangle_power_is_neutral():
    report = compare_regimes(triangle_structure(PowerProduction(2.0, 0.5)))
    assert report.curvature.verdict == "linear"
    assert report.ordering == "="
    assert report.effort_gap <= 1e-8
    assert report.theorem_consistent is True
    assert report.recommendation == "indifferent"


def test_compare_triangle_cara():
    report = compare_regimes(triangle_structure(CaraProduction(1.0)))
    assert report.curvature.verdict == "convex"
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


@pytest.mark.parametrize("prize", [0.0, -1.0, math.inf, math.nan])
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
