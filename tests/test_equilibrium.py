"""Structured DE and UE solvers and the valuation inversion."""

import math

import numpy as np
import pytest

from conflictnet import (
    Battle,
    BracketingConfig,
    CaraProduction,
    ConflictNetwork,
    EffortProfile,
    PowerCost,
    PowerProduction,
    RatioProduction,
    SemiSymmetricStructure,
    brent_increasing,
    check_semi_symmetry,
    generate_example,
    reverse_valuations,
    solve_de,
    solve_ue,
    tullock_closed_form_total,
    winning_probabilities,
)
from conflictnet import equilibrium

from conftest import BENCHMARK_PRODUCTIONS, random_structure, triangle_structure

SQRT_9_25 = math.sqrt(9.25)


def single_size2_structure(prize=1.0):
    return SemiSymmetricStructure(
        sizes=(2,),
        degrees={2: 1},
        prizes={2: prize},
        productions={2: PowerProduction(1.0, 1.0)},
        cost=PowerCost(1.0, 2.0),
    )


# ---------------------------------------------------------------------------
# Triangle benchmarks
# ---------------------------------------------------------------------------

def test_triangle_power_exact_solution():
    # With h(x) = 2x the first-order conditions collapse to X^2 = 9.25,
    # with size-2 effort 5/(8X) and size-3 effort 8/X.
    ss = triangle_structure(BENCHMARK_PRODUCTIONS["power"])
    de = solve_de(ss)
    assert de.total == pytest.approx(SQRT_9_25, rel=1e-9)
    assert de.efforts[2] == pytest.approx(5.0 / (8.0 * SQRT_9_25), rel=1e-9)
    assert de.efforts[3] == pytest.approx(8.0 / SQRT_9_25, rel=1e-9)
    assert de.marginal_cost == pytest.approx(SQRT_9_25, rel=1e-9)

    ue = solve_ue(ss)
    assert ue.total == pytest.approx(SQRT_9_25, rel=1e-9)
    assert ue.effort == pytest.approx(SQRT_9_25 / 3.0, rel=1e-9)


def test_triangle_ratio_totals():
    ss = triangle_structure(BENCHMARK_PRODUCTIONS["ratio"])
    assert solve_de(ss).total == pytest.approx(2.68415, rel=1e-4)
    assert solve_ue(ss).total == pytest.approx(3.03304, rel=1e-4)


def test_triangle_piecewise_totals():
    # Exact roots: the DE total solves X^2 + X = 17.25 and the UE per-battle
    # effort solves 9x(1 + x) = 18.5 on the affine branch.
    ss = triangle_structure(BENCHMARK_PRODUCTIONS["piecewise"])
    assert solve_de(ss).total == pytest.approx((-1 + math.sqrt(70)) / 2, rel=1e-9)
    assert solve_ue(ss).total == pytest.approx((-9 + math.sqrt(747)) / 6, rel=1e-9)
    assert solve_ue(ss).total == pytest.approx(3.05522, rel=1e-4)


def test_single_battle_closed_form():
    # FOC (1/4)/x = x gives x = 1/2.
    de = solve_de(single_size2_structure())
    assert de.efforts[2] == pytest.approx(0.5, rel=1e-9)
    ue = solve_ue(single_size2_structure())
    assert ue.effort == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# Result invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_de_result_internal_consistency(name):
    ss = triangle_structure(BENCHMARK_PRODUCTIONS[name])
    de = solve_de(ss)
    assert all(x > 0 for x in de.efforts.values())
    recomputed = sum(ss.degrees[k] * de.efforts[k] for k in ss.sizes)
    assert abs(de.total - recomputed) <= 1e-10
    assert abs(de.marginal_cost - ss.cost.c_prime(de.total)) <= 1e-10
    for k in ss.sizes:
        assert de.residuals[k] <= 1e-8 * de.marginal_cost


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_ue_result_internal_consistency(name):
    ss = triangle_structure(BENCHMARK_PRODUCTIONS[name])
    ue = solve_ue(ss)
    assert ue.effort > 0
    assert abs(ue.total - ss.total_degree * ue.effort) <= 1e-10
    expected_lam = ss.cost.c_prime(ue.total) * ss.total_degree
    assert abs(ue.marginal_cost - expected_lam) <= 1e-10
    assert ue.residual <= 1e-8 * ue.marginal_cost


@pytest.mark.parametrize("family", ["ratio", "cara", "power", "piecewise"])
def test_foc_restated_through_h(family):
    rng = np.random.default_rng(7)
    for _ in range(5):
        ss = random_structure(rng, family)
        de = solve_de(ss)
        for k in ss.sizes:
            lhs = ss.prizes[k] * ((k - 1) / k**2) / ss.productions[k].h(de.efforts[k])
            assert lhs == pytest.approx(de.marginal_cost, rel=1e-8)


def test_equal_treatment_at_equilibrium_profiles():
    production = BENCHMARK_PRODUCTIONS["cara"]
    net_battles = {
        "a": (1, 2),
        "b": (2, 3),
        "c": (3, 1),
        "d": (1, 2, 3),
    }
    network = ConflictNetwork(
        players=(1, 2, 3),
        battles=tuple(
            Battle(bid, members, 5.0 if len(members) == 2 else 72.0, production)
            for bid, members in net_battles.items()
        ),
        cost=PowerCost(1.0, 2.0),
    )
    ss = triangle_structure(production)
    de = solve_de(ss)
    profile = EffortProfile(
        {
            (p, b.id): de.efforts[b.size]
            for p in network.players
            for b in network.battles_of(p)
        }
    )
    for battle in network.battles:
        probs = winning_probabilities(battle, profile.battle_efforts(battle))
        np.testing.assert_allclose(probs, 1.0 / battle.size, rtol=1e-14)


def test_payoff_identity_at_symmetric_profile():
    ss = triangle_structure(BENCHMARK_PRODUCTIONS["power"])
    de = solve_de(ss)
    expected = 5.0 / 2 * 2 + 72.0 / 3 - ss.cost.c(de.total)
    assert de.payoff == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Valuation inversion
# ---------------------------------------------------------------------------

def test_reverse_valuations_recovers_triangle_prizes():
    ss = triangle_structure(BENCHMARK_PRODUCTIONS["power"])
    targets = {2: 5.0 / (8.0 * SQRT_9_25), 3: 8.0 / SQRT_9_25}
    prizes = reverse_valuations(ss, targets)
    assert prizes[2] == pytest.approx(5.0, rel=1e-10)
    assert prizes[3] == pytest.approx(72.0, rel=1e-10)


def test_reverse_valuations_single_battle_hand_value():
    # v = 4 * h(1/2) * C'(1/2) = 4 * 0.5 * 0.5 = 1.
    prizes = reverse_valuations(single_size2_structure(prize=123.0), {2: 0.5})
    assert prizes[2] == pytest.approx(1.0, rel=1e-12)


def test_reverse_valuations_scale_quadratically_for_power_families():
    rng = np.random.default_rng(5)
    ss = random_structure(rng, "power", quadratic_cost=True)
    targets = {k: float(rng.uniform(0.2, 2.0)) for k in ss.sizes}
    base = reverse_valuations(ss, targets)
    for t in (0.5, 2.0, 7.0):
        scaled = reverse_valuations(ss, {k: t * x for k, x in targets.items()})
        for k in ss.sizes:
            assert scaled[k] == pytest.approx(t**2 * base[k], rel=1e-10)


def test_reverse_valuations_validates_targets():
    ss = single_size2_structure()
    with pytest.raises(ValueError, match="missing target"):
        reverse_valuations(ss, {})
    with pytest.raises(ValueError, match="positive"):
        reverse_valuations(ss, {2: 0.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reverse_valuations_rejects_non_finite_targets(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        reverse_valuations(single_size2_structure(), {2: bad})


@pytest.mark.parametrize("family", ["ratio", "cara", "power", "piecewise"])
def test_round_trip_targets_to_prizes_to_equilibrium(family):
    rng = np.random.default_rng(42)
    for _ in range(8):
        ss = random_structure(rng, family)
        targets = {
            k: float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))) for k in ss.sizes
        }
        prizes = reverse_valuations(ss, targets)
        assert all(v > 0 for v in prizes.values())
        de = solve_de(ss.with_prizes(prizes))
        for k in ss.sizes:
            assert de.efforts[k] == pytest.approx(targets[k], rel=1e-6)


# ---------------------------------------------------------------------------
# Power-family equivalence of the two regimes
# ---------------------------------------------------------------------------

def test_power_families_make_regimes_agree_with_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ss = random_structure(rng, "power", quadratic_cost=True)
        expected = math.sqrt(
            sum(
                ss.degrees[k] * ss.prizes[k] * ((k - 1) / k**2) * ss.productions[k].r
                for k in ss.sizes
            )
        )
        assert solve_de(ss).total == pytest.approx(expected, rel=1e-8)
        assert solve_ue(ss).total == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# Prize scales across the float range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1.0, 0.5])
@pytest.mark.parametrize("v", [1e-300, 1e-150, 1e-22, 1e22, 1e150, 1e300])
def test_tullock_neutrality_holds_at_every_prize_scale(r, v):
    ss = triangle_structure(PowerProduction(1.0, r)).with_prizes({2: v, 3: 3 * v})
    expected = tullock_closed_form_total(ss)
    assert solve_de(ss).total == pytest.approx(expected, rel=1e-9)
    assert solve_ue(ss).total == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# One root per regime
# ---------------------------------------------------------------------------

MIXED_STRUCTURE = SemiSymmetricStructure(
    sizes=(2, 3),
    degrees={2: 2, 3: 1},
    prizes={2: 5.0, 3: 72.0},
    productions={2: PowerProduction(2.0, 0.5), 3: RatioProduction(1.0)},
    cost=PowerCost(1.0, 2.0),
)

ONE_ROOT_STRUCTURES = {
    **{name: triangle_structure(pf) for name, pf in BENCHMARK_PRODUCTIONS.items()},
    "mixed-power-ratio": MIXED_STRUCTURE,
}


@pytest.mark.parametrize("name", sorted(ONE_ROOT_STRUCTURES))
@pytest.mark.parametrize("solve", [solve_de, solve_ue])
def test_each_structured_solve_is_one_root_find(monkeypatch, name, solve):
    calls = []

    def counting(*args):
        calls.append(args)
        return brent_increasing(*args)

    monkeypatch.setattr(equilibrium, "brent_increasing", counting)
    solve(ONE_ROOT_STRUCTURES[name])
    assert len(calls) == 1


def nested_brent_totals(ss):
    """DE and UE totals by nested root finds: an independent reference.

    Each inner root inverts ``h`` (DE) or the aggregate ``1 / sum_k w_k / h_k``
    (UE) numerically inside an outer root in the per-player total.
    """
    cfg = BracketingConfig(rel_tol=1e-13)
    targets = {k: ss.prizes[k] * (k - 1) / k**2 for k in ss.sizes}

    def de_efforts(mu):
        lam = ss.cost.c_prime(mu)
        return {
            k: brent_increasing(ss.productions[k].h, targets[k] / lam, cfg)
            for k in ss.sizes
        }

    def de_gap(mu):
        xs = de_efforts(mu)
        return mu - sum(ss.degrees[k] * xs[k] for k in ss.sizes)

    xs = de_efforts(brent_increasing(de_gap, 0.0, cfg))
    de_total = sum(ss.degrees[k] * xs[k] for k in ss.sizes)

    D = ss.total_degree

    def inverse_aggregate(x):
        return 1.0 / sum(
            ss.degrees[k] * targets[k] / ss.productions[k].h(x) for k in ss.sizes
        )

    def ue_effort(mu):
        return brent_increasing(inverse_aggregate, 1.0 / (D * ss.cost.c_prime(mu)), cfg)

    ue_total = D * ue_effort(brent_increasing(lambda mu: mu - D * ue_effort(mu), 0.0, cfg))
    return de_total, ue_total


@pytest.mark.parametrize("example", ["triangle", "simplex"])
@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
@pytest.mark.parametrize("v", [1e-22, 1.0, 72.0, 1e22])
def test_one_root_solves_match_nested_root_finds(example, name, v):
    network = generate_example(example, production=BENCHMARK_PRODUCTIONS[name])
    ss = check_semi_symmetry(network)
    ss = ss.with_prizes({k: v * (k - 1) for k in ss.sizes})
    de_total, ue_total = nested_brent_totals(ss)
    assert solve_de(ss).total == pytest.approx(de_total, rel=1e-9)
    assert solve_ue(ss).total == pytest.approx(ue_total, rel=1e-9)


def test_ue_reads_an_underflowing_h_as_an_infinite_marginal_benefit():
    # The root lies below the smallest float, so the bracket search reaches
    # x = 5e-324, where cara's h = expm1(x / 2) * 2 underflows to 0.
    ss = SemiSymmetricStructure(
        sizes=(2,),
        degrees={2: 1},
        prizes={2: 1e-300},
        productions={2: CaraProduction(0.5)},
        cost=PowerCost(1e30, 1.0),
    )
    assert CaraProduction(0.5).h(5e-324) == 0.0
    ue = solve_ue(ss)
    assert 0.0 < ue.effort <= 1e-323
