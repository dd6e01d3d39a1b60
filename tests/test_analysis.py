"""Curvature classification, regime comparison, neutrality, closed form."""

import math

import numpy as np
import pytest

from conflictnet import (
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
    neutrality_check,
    solve_de,
    solve_ue,
    tullock_closed_form_total,
)

from conftest import BENCHMARK_PRODUCTIONS, random_structure, triangle_structure


# ---------------------------------------------------------------------------
# Curvature classification
# ---------------------------------------------------------------------------

def test_ratio_h_is_convex():
    verdict = classify_h(RatioProduction(1.0))
    assert verdict.verdict == "convex"
    assert verdict.max_signed_defect < 0
    assert verdict.third_derivative_sign == "nonnegative"


def test_power_h_is_linear_for_random_parameters():
    rng = np.random.default_rng(3)
    for _ in range(8):
        pf = PowerProduction(A=float(rng.uniform(0.2, 5)), r=float(rng.uniform(0.05, 1)))
        verdict = classify_h(pf)
        assert verdict.verdict == "linear"
        assert verdict.third_derivative_sign == "zero"


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
    with pytest.raises(ValueError, match="64 samples"):
        classify_h(pf, samples=32)
    with pytest.raises(ValueError, match="positive interval"):
        classify_h(pf, domain=(-1.0, 1.0))


# ---------------------------------------------------------------------------
# Regime comparison
# ---------------------------------------------------------------------------

def test_compare_triangle_ratio():
    report = compare_regimes(triangle_structure(RatioProduction(1.0)))
    assert report.curvature.verdict == "convex"
    assert report.total_ue == pytest.approx(3.03304, rel=1e-4)
    assert report.total_de == pytest.approx(2.68415, rel=1e-4)
    assert report.ordering == "<"
    assert report.theorem_consistent is True
    assert report.recommendation == "ue"
    assert report.de.payoff > report.ue.payoff


def test_compare_triangle_piecewise():
    report = compare_regimes(
        triangle_structure(PiecewisePowerAffineProduction(2.0, 0.5, 1.0))
    )
    assert report.curvature.verdict == "concave"
    assert report.total_ue == pytest.approx(3.05522, rel=1e-3)
    assert report.total_de == pytest.approx(3.6833, rel=1e-3)
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
    assert report.total_de <= report.total_ue
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


def test_neutrality_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        neutrality_check(triangle_structure(PowerProduction(1.0, 1.0)), [])


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
    with pytest.raises(PreconditionViolation, match="quadratic"):
        tullock_closed_form_total(cubic)
    with pytest.raises(PreconditionViolation, match="power"):
        tullock_closed_form_total(triangle_structure(RatioProduction(1.0)))


@pytest.mark.parametrize("v", [1e-22, 1e22])
@pytest.mark.parametrize("family", ["ratio", "cara", "piecewise"])
def test_simplex_comparison_holds_at_extreme_prize_scales(family, v):
    network = generate_simplex(v, v, v, production=BENCHMARK_PRODUCTIONS[family])
    report = compare_regimes(check_semi_symmetry(network))
    de = report.de
    assert max(de.residuals.values()) <= 1e-8 * de.marginal_cost
    assert report.theorem_consistent is True
