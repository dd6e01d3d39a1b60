"""Network types, winning probabilities, payoffs, and semi-symmetry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictnet import (
    Battle,
    ConflictNetwork,
    EffortProfile,
    PowerCost,
    PowerProduction,
    RatioProduction,
    SemiSymmetricStructure,
    SemiSymmetryViolations,
    UnknownPlayer,
    check_semi_symmetry,
    generate_simplex,
    generate_triangle,
    payoff,
    winning_probabilities,
)
from conflictnet.network import contest_share, marginal_benefit

from conftest import BENCHMARK_PRODUCTIONS


def single_battle_network(production=None, prize=1.0):
    production = production or PowerProduction(1.0, 1.0)
    return ConflictNetwork(
        players=(1, 2),
        battles=(Battle("t", (1, 2), prize, production),),
        cost=PowerCost(1.0, 2.0),
    )


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------

def test_battle_requires_two_distinct_participants_and_positive_prize():
    pf = PowerProduction(1.0, 1.0)
    with pytest.raises(ValueError):
        Battle("t", (1,), 1.0, pf)
    with pytest.raises(ValueError):
        Battle("t", (1, 1), 1.0, pf)
    with pytest.raises(ValueError):
        Battle("t", (1, 2), 0.0, pf)
    for prize in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Battle("t", (1, 2), prize, pf)


def test_network_rejects_unknown_participants_idle_players_and_dup_ids():
    pf = PowerProduction(1.0, 1.0)
    cost = PowerCost()
    with pytest.raises(ValueError, match="unknown player"):
        ConflictNetwork((1, 2), (Battle("t", (1, 3), 1.0, pf),), cost)
    with pytest.raises(ValueError, match="no battle"):
        ConflictNetwork((1, 2, 3), (Battle("t", (1, 2), 1.0, pf),), cost)
    with pytest.raises(ValueError, match="at least one battle"):
        ConflictNetwork((), (), cost)
    with pytest.raises(ValueError, match="duplicate battle ids"):
        ConflictNetwork(
            (1, 2),
            (Battle("t", (1, 2), 1.0, pf), Battle("t", (2, 1), 1.0, pf)),
            cost,
        )


def test_effort_profile_requires_exact_incidence_and_nonnegativity():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="negative effort"):
            EffortProfile({(1, "a"): bad})


# ---------------------------------------------------------------------------
# Winning probabilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_equal_positive_efforts_split_evenly(name):
    battle = Battle("t", (1, 2, 3), 1.0, BENCHMARK_PRODUCTIONS[name])
    probs = winning_probabilities(battle, [0.8, 0.8, 0.8])
    np.testing.assert_allclose(probs, [1 / 3] * 3, rtol=1e-12)


def test_all_zero_efforts_yield_fair_lottery():
    battle = Battle("t", (1, 2), 3.0, RatioProduction(1.0))
    np.testing.assert_allclose(winning_probabilities(battle, [0.0, 0.0]), [0.5, 0.5])


def test_linear_power_probabilities_are_effort_shares():
    battle = Battle("t", (1, 2), 1.0, PowerProduction(1.0, 1.0))
    np.testing.assert_allclose(
        winning_probabilities(battle, [1.0, 3.0]), [0.25, 0.75], rtol=1e-12
    )


def test_probability_length_mismatch_rejected():
    battle = Battle("t", (1, 2), 1.0, PowerProduction(1.0, 1.0))
    with pytest.raises(ValueError, match="expected 2 efforts"):
        winning_probabilities(battle, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_efforts_are_rejected(bad):
    battle = Battle("t", (1, 2), 1.0, PowerProduction(1.0, 1.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        winning_probabilities(battle, [bad, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    efforts=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=2, max_size=5
    ),
    name=st.sampled_from(sorted(BENCHMARK_PRODUCTIONS)),
)
def test_probabilities_sum_to_one_and_are_permutation_equivariant(efforts, name):
    players = tuple(range(1, len(efforts) + 1))
    battle = Battle("t", players, 1.0, BENCHMARK_PRODUCTIONS[name])
    probs = winning_probabilities(battle, efforts)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= 0)
    reversed_probs = winning_probabilities(battle, efforts[::-1])
    np.testing.assert_allclose(probs[::-1], reversed_probs, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def test_symmetric_single_battle_payoff():
    net = single_battle_network()
    profile = EffortProfile.constant(net, 0.5)
    assert payoff(net, profile, 1) == pytest.approx(0.5 - 0.125)


def test_triangle_payoff_at_unit_efforts():
    # All efforts 1: wins half of each bilateral battle and a third of the
    # joint battle, with cost (1+1+1)^2/2 = 4.5.
    net = generate_triangle(production=PowerProduction(2.0, 0.5))
    profile = EffortProfile.constant(net, 1.0)
    expected = 5.0 * 0.5 + 5.0 * 0.5 + 72.0 / 3.0 - 4.5
    assert expected == pytest.approx(24.5)
    assert payoff(net, profile, 1) == pytest.approx(expected, rel=1e-12)


def test_zero_own_effort_against_active_rivals_earns_zero():
    net = generate_triangle(production=RatioProduction(1.0))
    efforts = {
        (p, b.id): (0.0 if p == 1 else 1.0)
        for p in net.players
        for b in net.battles_of(p)
    }
    assert payoff(net, EffortProfile(efforts), 1) == 0.0


def test_payoff_unknown_player():
    net = single_battle_network()
    with pytest.raises(UnknownPlayer):
        payoff(net, EffortProfile.constant(net, 0.5), 99)


def test_payoff_decreases_when_only_the_cost_argument_grows():
    net = generate_triangle(production=PowerProduction(2.0, 0.5))
    profile = EffortProfile.constant(net, 1.0)
    base = payoff(net, profile, 1)
    value_part = base + net.cost.c(3.0)
    for bump in (0.1, 0.5, 2.0):
        perturbed = value_part - net.cost.c(3.0 + bump)
        assert perturbed < base


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
@pytest.mark.parametrize("generate", [generate_triangle, generate_simplex])
def test_payoff_is_prize_weighted_winning_probabilities_minus_cost(generate, name):
    net = generate(production=BENCHMARK_PRODUCTIONS[name])
    rng = np.random.default_rng(11)
    for trial in range(6):
        # A rotating third of the battles has every participant at zero.
        idle = {b.id for i, b in enumerate(net.battles) if (i + trial) % 3 == 0}
        profile = EffortProfile(
            {
                (p, b.id): 0.0 if b.id in idle else float(rng.uniform(0.0, 3.0))
                for p in net.players
                for b in net.battles_of(p)
            }
        )
        for player in net.players:
            expected = -net.cost.c(profile.total(player))
            for b in net.battles_of(player):
                probs = winning_probabilities(b, profile.battle_efforts(b))
                expected += b.prize * probs[b.participants.index(player)]
            assert payoff(net, profile, player) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_marginal_benefit_is_the_slope_of_the_prize_weighted_share(name):
    pf = BENCHMARK_PRODUCTIONS[name]
    battle = Battle("t", (1, 2, 3), 7.0, pf)
    for rivals in (0.3, 2.0):

        def value(x):
            return battle.prize * contest_share(pf.f(x), rivals, battle.size)

        # 0.7 and 3.0 lie either side of the piecewise kink at 1.
        for x in (0.05, 0.7, 3.0):
            step = 1e-6 * x
            slope = (value(x + step) - value(x - step)) / (2.0 * step)
            assert marginal_benefit(battle, x, rivals) == pytest.approx(slope, rel=1e-6)
        if math.isfinite(pf.f_prime(0.0)):
            assert marginal_benefit(battle, 0.0, rivals) == pytest.approx(
                marginal_benefit(battle, 1e-12, rivals), rel=1e-9
            )


@pytest.mark.parametrize("x,rivals", [(1e250, 1e200), (1.0, 1e250), (1e250, 1e250)])
def test_marginal_benefit_stays_finite_past_the_overflow_of_the_squared_score(x, rivals):
    # (f + S)^2 passes the float range once f + S does 1.3e154.
    battle = Battle("t", (1, 2), 3.0, PowerProduction(2.0, 1.0))
    pf = battle.production
    score = Fraction(pf.f(x)) + Fraction(rivals)
    exact = Fraction(battle.prize) * Fraction(pf.f_prime(x)) * Fraction(rivals) / score**2
    got = marginal_benefit(battle, x, rivals)
    assert math.isfinite(got) and got > 0.0
    assert got == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_marginal_benefit_at_zero_is_infinite_where_f_prime_is():
    battle = Battle("t", (1, 2), 5.0, PowerProduction(2.0, 0.5))
    assert battle.production.f_prime(0.0) == math.inf
    for rivals in (1e-300, 1.0, 1e300):
        assert marginal_benefit(battle, 0.0, rivals) == math.inf


# ---------------------------------------------------------------------------
# Semi-symmetry classification
# ---------------------------------------------------------------------------

def test_triangle_is_semi_symmetric():
    ss = check_semi_symmetry(generate_triangle())
    assert isinstance(ss, SemiSymmetricStructure)
    assert ss.sizes == (2, 3)
    assert ss.degrees == {2: 2, 3: 1}
    assert ss.prizes == {2: 5.0, 3: 72.0}
    assert ss.total_degree == 3


def test_simplex_is_semi_symmetric():
    net = generate_simplex()
    assert len(net.battles) == 9
    ss = check_semi_symmetry(net)
    assert isinstance(ss, SemiSymmetricStructure)
    assert ss.sizes == (2, 3, 4)
    assert ss.degrees == {2: 2, 3: 3, 4: 1}


def test_prize_override_keeps_semi_symmetry():
    ss = check_semi_symmetry(generate_triangle(v2=6.0))
    assert isinstance(ss, SemiSymmetricStructure)
    assert ss.prizes[2] == 6.0


def test_prize_mismatch_is_reported():
    net = generate_triangle()
    battles = [
        Battle("a", (1, 2), 6.0, net.battles[0].production)
        if b.id == "a"
        else b
        for b in net.battles
    ]
    broken = ConflictNetwork(net.players, tuple(battles), net.cost)
    result = check_semi_symmetry(broken)
    assert isinstance(result, SemiSymmetryViolations)
    assert any(v.kind == "prize" and v.size == 2 for v in result)


def test_degree_mismatch_is_reported():
    pf = PowerProduction(1.0, 1.0)
    net = ConflictNetwork(
        players=(1, 2, 3),
        battles=(
            Battle("a", (1, 2), 1.0, pf),
            Battle("b", (2, 3), 1.0, pf),
        ),
        cost=PowerCost(),
    )
    result = check_semi_symmetry(net)
    assert isinstance(result, SemiSymmetryViolations)
    assert any(v.kind == "degree" for v in result)


def test_production_mismatch_within_size_class_is_reported():
    net = generate_triangle()
    battles = list(net.battles)
    battles[0] = Battle("a", (1, 2), 5.0, RatioProduction(1.0))
    result = check_semi_symmetry(ConflictNetwork(net.players, tuple(battles), net.cost))
    assert isinstance(result, SemiSymmetryViolations)
    assert any(v.kind == "production" and v.size == 2 for v in result)


def test_structure_invariants_enforced():
    pf = PowerProduction(1.0, 1.0)
    with pytest.raises(ValueError, match="size must be >= 2"):
        SemiSymmetricStructure((1,), {1: 1}, {1: 1.0}, {1: pf}, PowerCost())
    for prize in (0.0, math.inf):
        with pytest.raises(ValueError, match="must be positive"):
            SemiSymmetricStructure((2,), {2: 1}, {2: prize}, {2: pf}, PowerCost())
    with pytest.raises(ValueError, match="d_2"):
        SemiSymmetricStructure((2,), {2: 0}, {2: 1.0}, {2: pf}, PowerCost())
