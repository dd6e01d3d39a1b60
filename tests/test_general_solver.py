"""Best responses, iterative equilibria, and the brute-force oracle."""

import math
import sys

import numpy as np
import pytest

from conflictnet import (
    Battle,
    CaraProduction,
    ConflictNetwork,
    DimensionTooLarge,
    EffortProfile,
    IterationConfig,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    RatioProduction,
    best_response,
    brute_force_nash,
    check_semi_symmetry,
    generate_example,
    generate_triangle,
    payoff,
    solve_de,
    solve_nash_iterative,
    solve_nash_ue_iterative,
    solve_ue,
)

from conflictnet import equilibrium, functions, general_solver
from conflictnet.errors import NoConvergence
from conflictnet.general_solver import _battle_effort
from conflictnet.network import marginal_benefit
from conflictnet.rootfind import brent_increasing

from conftest import BENCHMARK_PRODUCTIONS


def single_battle_network(prize=1.0):
    return ConflictNetwork(
        players=(1, 2),
        battles=(Battle("t", (1, 2), prize, PowerProduction(1.0, 1.0)),),
        cost=PowerCost(1.0, 2.0),
    )


def one_battle_per_player_network():
    pf = RatioProduction(1.0)
    return ConflictNetwork(
        players=(1, 2, 3, 4),
        battles=(
            Battle("t", (1, 2), 3.0, pf),
            Battle("u", (3, 4), 3.0, pf),
        ),
        cost=PowerCost(1.0, 2.0),
    )


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def test_best_response_single_battle_closed_form():
    # Rival at 1/2: the first-order condition (1/2)/(x + 1/2)^2 = x holds at
    # x = 1/2 exactly.
    net = single_battle_network()
    response = best_response(net, 1, EffortProfile.constant(net, 0.5))
    assert response["t"] == pytest.approx(0.5, rel=1e-9)


def test_best_response_is_a_maximizer_on_a_grid():
    net = single_battle_network()
    profile = EffortProfile.constant(net, 0.5)
    response = best_response(net, 1, profile)
    base = dict(profile.efforts)
    base[(1, "t")] = response["t"]
    best_value = payoff(net, EffortProfile(base), 1)
    for x in np.linspace(0.0, 2.0, 401):
        trial = dict(profile.efforts)
        trial[(1, "t")] = float(x)
        assert payoff(net, EffortProfile(trial), 1) <= best_value + 1e-11


def test_best_response_vanishes_against_overwhelming_rivals():
    net = generate_triangle(v2=0.5, v3=0.5, production=PowerProduction(1.0, 1.0))
    huge = EffortProfile.constant(net, 1e6)
    response = best_response(net, 1, huge)
    assert all(x == pytest.approx(0.0, abs=1e-5) for x in response.values())


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_best_response_fixes_the_structured_equilibrium(name):
    production = BENCHMARK_PRODUCTIONS[name]
    net = generate_triangle(production=production)
    de = solve_de(check_semi_symmetry(net))
    profile = EffortProfile(
        {
            (p, b.id): de.efforts[b.size]
            for p in net.players
            for b in net.battles_of(p)
        }
    )
    response = best_response(net, 1, profile)
    for b in net.battles_of(1):
        assert response[b.id] == pytest.approx(de.efforts[b.size], rel=1e-6)


def test_best_response_invariant_to_rival_permutation():
    pf = RatioProduction(1.0)
    net = ConflictNetwork(
        players=(1, 2, 3),
        battles=(Battle("t", (1, 2, 3), 4.0, pf), Battle("u", (1, 2, 3), 2.0, pf)),
        cost=PowerCost(1.0, 2.0),
    )
    a = EffortProfile(
        {(1, "t"): 1, (2, "t"): 3, (3, "t"): 7, (1, "u"): 1, (2, "u"): 2, (3, "u"): 5}
    )
    b = EffortProfile(
        {(1, "t"): 1, (2, "t"): 7, (3, "t"): 3, (1, "u"): 1, (2, "u"): 5, (3, "u"): 2}
    )
    assert best_response(net, 1, a) == best_response(net, 1, b)


def test_degenerate_battles_get_the_floor_effort():
    net = single_battle_network()
    zeros = EffortProfile.constant(net, 0.0)
    response = best_response(net, 1, zeros)
    # 1e-12 times the symmetric effort x = v / (4 x) = 1/2.
    assert response["t"] == pytest.approx(0.5e-12, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("prize", [1e-30, 1e-300])
def test_floor_effort_scales_with_the_prizes(prize):
    net = single_battle_network(prize)
    response = best_response(net, 1, EffortProfile.constant(net, 0.0))
    assert response["t"] == pytest.approx(1e-12 * math.sqrt(prize) / 2.0, rel=1e-3, abs=0.0)


small_prizes = pytest.mark.parametrize("scale", [1e-30, 1e-100, 1e-300])
finite_slopes_at_zero = pytest.mark.parametrize("production", [
    PowerProduction(1.0, 1.0), RatioProduction(1.0), CaraProduction(1.0),
], ids=["power", "ratio", "cara"])


def _assert_iterative_de_matches_structured(net, cfg):
    out = solve_nash_iterative(net, cfg)
    assert out.converged
    expected = solve_de(check_semi_symmetry(net)).total
    for player in net.players:
        assert out.profile.total(player) == pytest.approx(expected, rel=1e-9, abs=0.0)


@small_prizes
@finite_slopes_at_zero
def test_iterative_de_converges_at_small_prizes(production, scale):
    # Battles left at the corner 0 get a floor far below the equilibrium
    # efforts, so the profile does not flip between two degenerate states.
    net = generate_triangle(v2=5.0 * scale, v3=72.0 * scale, production=production)
    _assert_iterative_de_matches_structured(net, IterationConfig(max_iterations=300))


@small_prizes
@finite_slopes_at_zero
def test_iterative_de_converges_at_small_prizes_from_a_random_start(
    floor_calls, production, scale
):
    # The symmetric start is this network's equilibrium, so the test above
    # never meets a degenerate battle.  From this random start a sweep
    # leaves battles at the corner 0 and the next gives them the floor.
    net = generate_triangle(v2=5.0 * scale, v3=72.0 * scale, production=production)
    cfg = IterationConfig(max_iterations=300, initial="random", seed=0)
    _assert_iterative_de_matches_structured(net, cfg)
    assert floor_calls


def test_iteration_does_not_stop_on_a_sweep_that_used_the_floor_effort(floor_calls):
    # From every effort at 1 the first sweep puts every effort in the size-3
    # battle at the corner 0 and leaves the others near 1; the second gives
    # that battle the floor and moves the profile by little more than it.
    # Neither the symmetric start nor a random one reaches this sweep.
    net = generate_triangle(v2=24.662, v3=1.162, production=CaraProduction(1.9454))
    out = general_solver._iterate(
        net, IterationConfig(), general_solver._best_response_discriminatory,
        lambda network: EffortProfile.constant(network, 1.0),
    )
    assert out.converged and out.iterations > 2
    assert floor_calls
    expected = solve_de(check_semi_symmetry(net)).total
    for player in net.players:
        assert out.profile.total(player) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_corner_best_response_under_linear_cost():
    # Marginal benefit at zero effort is v*f'(0)/S = 1, which a flat marginal
    # cost of 10 dominates, so the corner is optimal; with marginal cost 0.2
    # the response is interior.
    pf = PowerProduction(1.0, 1.0)
    steep = ConflictNetwork(
        players=(1, 2),
        battles=(Battle("t", (1, 2), 1.0, pf),),
        cost=PowerCost(kappa=10.0, p=1.0),
    )
    rivals = EffortProfile.constant(steep, 1.0)
    assert best_response(steep, 1, rivals)["t"] == 0.0

    flat = ConflictNetwork(
        players=(1, 2),
        battles=(Battle("t", (1, 2), 1.0, pf),),
        cost=PowerCost(kappa=0.2, p=1.0),
    )
    # FOC S/(x+S)^2 = 0.2 with S = 1: x = sqrt(5) - 1.
    response = best_response(flat, 1, rivals)
    assert response["t"] == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-9)


@pytest.mark.parametrize(
    "cost", [PowerCost(1e-320), PowerCost(1.0, 1e308)], ids=["kappa1e-320", "p1e308"]
)
def test_iterative_de_best_response_where_marginal_cost_underflows(cost):
    # C' underflows to 0 at small totals, where every battle's effort is
    # beyond float range: the consistency gap is -inf there, as in the
    # structured solver, not a division by 0.  The solve may or may not
    # converge in 20 sweeps.
    base = generate_triangle(production=PowerProduction(1.0, 1.0))
    net = ConflictNetwork(players=base.players, battles=base.battles, cost=cost)
    out = solve_nash_iterative(net, IterationConfig(max_iterations=20))
    assert out.iterations <= 20


def test_de_best_response_solves_through_the_structured_root(monkeypatch):
    # One DE consistency gap serves both engines: the best response's root
    # on its total is the structured engine's, and general_solver makes no
    # DE root of its own.
    roots = {equilibrium: 0, general_solver: 0}
    for module in roots:
        def counting(*args, module=module, brent=module.brent_increasing, **kwargs):
            roots[module] += 1
            return brent(*args, **kwargs)

        monkeypatch.setattr(module, "brent_increasing", counting)
    net = generate_triangle()
    response = best_response(net, 1, EffortProfile.constant(net, 1.0))
    assert all(x > 0.0 for x in response.values())
    assert roots == {equilibrium: 1, general_solver: 0}


# ---------------------------------------------------------------------------
# Iterative solvers
# ---------------------------------------------------------------------------

def test_iterative_matches_triangle_power_benchmark():
    out = solve_nash_iterative(generate_triangle(production=BENCHMARK_PRODUCTIONS["power"]))
    assert out.converged
    assert out.profile.total(1) == pytest.approx(3.04138, rel=1e-4)


def test_iterative_matches_triangle_ratio_benchmark():
    out = solve_nash_iterative(generate_triangle(production=RatioProduction(1.0)))
    assert out.converged
    for player in (1, 2, 3):
        assert out.profile.total(player) == pytest.approx(2.68415, rel=1e-3)


def test_ue_iterative_matches_triangle_piecewise_benchmark():
    net = generate_triangle(production=BENCHMARK_PRODUCTIONS["piecewise"])
    out = solve_nash_ue_iterative(net)
    assert out.converged
    assert out.profile.total(2) == pytest.approx(3.05522, rel=1e-3)


def test_ue_iterative_matches_structured_on_single_battle():
    net = single_battle_network()
    ss = check_semi_symmetry(net)
    out = solve_nash_ue_iterative(net)
    assert out.converged
    assert out.profile.total(1) == pytest.approx(solve_ue(ss).total, rel=1e-8)


def test_regimes_coincide_when_each_player_has_one_battle():
    net = one_battle_per_player_network()
    de = solve_nash_iterative(net)
    ue = solve_nash_ue_iterative(net)
    assert de.converged and ue.converged
    for p in net.players:
        assert de.profile.total(p) == pytest.approx(ue.profile.total(p), rel=1e-8)


def test_deviation_gain_certificate():
    net = generate_triangle(production=BENCHMARK_PRODUCTIONS["cara"])
    out = solve_nash_iterative(net)
    assert out.converged
    assert out.deviation_gain <= 1e-6 * 72.0


def test_multi_start_agreement_small():
    net = generate_triangle(production=BENCHMARK_PRODUCTIONS["ratio"])
    profiles = []
    for seed in range(3):
        cfg = IterationConfig(initial="random", seed=seed, tolerance=1e-9)
        out = solve_nash_iterative(net, cfg)
        assert out.converged
        profiles.append(out.profile)
    for other in profiles[1:]:
        assert profiles[0].max_norm_distance(other) <= 1e-6


def test_nonconvergence_is_reported_not_raised():
    net = _random_asymmetric_network(np.random.default_rng(7))
    out = solve_nash_iterative(net, IterationConfig(max_iterations=2))
    assert not out.converged
    assert out.iterations == 2


def test_iteration_config_validation():
    for cap in (0, -1, 1.5, math.inf, math.nan, True, 10.0):
        with pytest.raises(ValueError):
            IterationConfig(max_iterations=cap)
    with pytest.raises(ValueError):
        IterationConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        IterationConfig(tolerance=math.inf)
    for initial in ("explicit", "constant"):
        with pytest.raises(ValueError):
            IterationConfig(initial=initial)


@pytest.mark.parametrize(
    "solver, name",
    [
        (solve_nash_iterative, "_best_response_discriminatory"),
        (solve_nash_ue_iterative, "_best_response_uniform"),
    ],
)
@pytest.mark.parametrize("cap", [1, 3, 10_000])
def test_each_sweep_answers_every_player_once(monkeypatch, solver, name, cap):
    respond = getattr(general_solver, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return respond(*args, **kwargs)

    monkeypatch.setattr(general_solver, name, counting)
    net = _random_asymmetric_network(np.random.default_rng(7))
    out = solver(net, IterationConfig(max_iterations=cap))
    if cap < 10_000:
        assert (out.iterations, out.converged) == (cap, False)
    else:
        assert out.converged
    assert len(calls) == len(net.players) * out.iterations


@pytest.mark.parametrize(
    "solver, start",
    [
        (solve_nash_iterative, general_solver._symmetric_de_start),
        (solve_nash_ue_iterative, general_solver._symmetric_ue_start),
    ],
    ids=["solve_nash_iterative", "solve_nash_ue_iterative"],
)
def test_one_sweep_certifies_the_unmoved_start(solver, start):
    net = _random_asymmetric_network(np.random.default_rng(7))
    out = solver(net, IterationConfig(max_iterations=1))
    assert out.iterations == 1
    assert not out.converged
    assert out.profile == start(net)
    assert out.deviation_gain > 0.0


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
@pytest.mark.parametrize("example", ["triangle", "simplex"])
def test_symmetric_start_is_certified_in_one_sweep(example, name):
    # On a semi-symmetric network each player's symmetric first-order
    # solution is the equilibrium, so the first sweep moves nothing.
    net = generate_example(example, production=BENCHMARK_PRODUCTIONS[name])
    ss = check_semi_symmetry(net)
    for solver, structured in (
        (solve_nash_iterative, solve_de(ss)),
        (solve_nash_ue_iterative, solve_ue(ss)),
    ):
        out = solver(net)
        assert (out.iterations, out.converged) == (1, True)
        for player in net.players:
            assert out.profile.total(player) == pytest.approx(
                structured.total, rel=1e-9, abs=0.0
            )


# DE and UE sweeps to convergence on ``_random_asymmetric_network`` by rng
# seed, when every effort started at 1.
CONSTANT_START_SWEEPS = {0: (195, 11), 5: (35, 10), 7: (35, 14)}


@pytest.mark.parametrize("seed", sorted(CONSTANT_START_SWEEPS))
def test_symmetric_start_takes_no_more_sweeps_than_the_constant_start(seed):
    net = _random_asymmetric_network(np.random.default_rng(seed))
    outcomes = (solve_nash_iterative(net), solve_nash_ue_iterative(net))
    for out, sweeps in zip(outcomes, CONSTANT_START_SWEEPS[seed]):
        assert out.converged
        assert out.iterations <= sweeps


@pytest.mark.parametrize("cap", [1, 3, 10_000])
def test_deviation_gain_is_the_gain_at_the_returned_profile(cap):
    net = _random_asymmetric_network(np.random.default_rng(11))
    out = solve_nash_iterative(net, IterationConfig(max_iterations=cap))
    worst = 0.0
    for p in net.players:
        trial = dict(out.profile.efforts)
        for bid, x in best_response(net, p, out.profile).items():
            trial[(p, bid)] = x
        gain = payoff(net, EffortProfile(trial), p) - payoff(net, out.profile, p)
        worst = max(worst, gain)
    assert out.deviation_gain == worst


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_force_locates_single_battle_equilibrium():
    net = single_battle_network()
    candidates = brute_force_nash(net, np.linspace(0.0, 1.0, 101))
    assert candidates
    best = candidates[0]
    assert best.effort(1, "t") == pytest.approx(0.5, abs=0.01)
    assert best.effort(2, "t") == pytest.approx(0.5, abs=0.01)


def test_brute_force_respects_symmetry_of_twin_battles():
    pf = PowerProduction(1.0, 1.0)
    net = ConflictNetwork(
        players=(1, 2),
        battles=(Battle("t", (1, 2), 1.0, pf), Battle("u", (1, 2), 1.0, pf)),
        cost=PowerCost(1.0, 2.0),
    )
    candidates = brute_force_nash(net, np.linspace(0.0, 0.6, 13))
    assert candidates
    swapped = {
        tuple(
            sorted(
                (p, {"t": "u", "u": "t"}[bid], x)
                for (p, bid), x in c.efforts.items()
            )
        )
        for c in candidates
    }
    original = {
        tuple(sorted((p, bid, x) for (p, bid), x in c.efforts.items()))
        for c in candidates
    }
    assert swapped == original


def test_brute_force_uniform_mode_tracks_structured_totals():
    net = generate_triangle(production=BENCHMARK_PRODUCTIONS["power"])
    de_total = solve_de(check_semi_symmetry(net)).total
    grid = np.linspace(0.0, 2.0, 3)
    candidates = brute_force_nash(net, grid, uniform=True)
    assert candidates
    best_total = candidates[0].total(1)
    assert abs(best_total - de_total) <= 3 * float(np.diff(grid)[0])


def test_brute_force_dimension_guards():
    net = generate_triangle()
    with pytest.raises(DimensionTooLarge, match="effort dimensions"):
        brute_force_nash(net, np.linspace(0, 1, 5))
    with pytest.raises(DimensionTooLarge, match="grid points"):
        brute_force_nash(single_battle_network(), np.linspace(0, 1, 300))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_brute_force_rejects_non_finite_grid_points(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        brute_force_nash(single_battle_network(), [0.0, 0.5, bad])


def test_brute_force_crosschecks_iterative_on_asymmetric_network():
    # Two players, two battles with unequal prizes and different production
    # functions: no structured solver applies, so the grid oracle is the
    # only independent check.
    net = ConflictNetwork(
        players=(1, 2),
        battles=(
            Battle("t", (1, 2), 2.0, RatioProduction(1.0)),
            Battle("u", (1, 2), 1.0, PowerProduction(1.0, 0.5)),
        ),
        cost=PowerCost(1.0, 2.0),
    )
    out = solve_nash_iterative(net, IterationConfig(tolerance=1e-9))
    assert out.converged
    grid = np.linspace(0.0, 1.0, 51)  # step 0.02, 51^4 cells
    best = brute_force_nash(net, grid)[0]
    for key, x in best.efforts.items():
        assert out.profile.efforts[key] == pytest.approx(x, abs=0.02)


# ---------------------------------------------------------------------------
# Randomized robustness
# ---------------------------------------------------------------------------

def _random_asymmetric_network(rng):
    families = (
        lambda: PowerProduction(float(rng.uniform(0.3, 3)), float(rng.uniform(0.1, 1.0))),
        lambda: RatioProduction(float(rng.uniform(0.3, 3))),
    )
    n = int(rng.integers(3, 5))
    players = tuple(range(1, n + 1))
    while True:
        battles = []
        for i in range(int(rng.integers(2, 6))):
            k = int(rng.integers(2, n + 1))
            members = tuple(int(p) for p in rng.choice(players, size=k, replace=False))
            battles.append(
                Battle(f"b{i}", members, float(rng.uniform(0.5, 50)), families[i % 2]())
            )
        if {p for b in battles for p in b.participants} == set(players):
            return ConflictNetwork(players, tuple(battles), PowerCost(1.0, 2.0))


def test_random_asymmetric_networks_reach_certified_profiles():
    rng = np.random.default_rng(123)
    for _ in range(10):
        net = _random_asymmetric_network(rng)
        for solver in (solve_nash_iterative, solve_nash_ue_iterative):
            out = solver(net, IterationConfig(tolerance=1e-9))
            assert out.converged
            assert out.deviation_gain <= 1e-6 * net.max_prize


# ---------------------------------------------------------------------------
# Corner efforts below the float range
# ---------------------------------------------------------------------------

def test_battle_effort_below_the_smallest_float_is_the_corner():
    # G(x) = (x**0.999 + 1)**2 / (0.999 x**-0.001) exceeds the target
    # 10 * 1 / 100 even at x = 5e-324: the root is below every positive float.
    battle = Battle("b", (1, 2), 10.0, PowerProduction(1.0, 0.999))
    assert _battle_effort(battle, 1.0)(1.0 / 100.0) == 0.0


# ---------------------------------------------------------------------------
# Battle efforts
# ---------------------------------------------------------------------------

def _power_log_f_prime(A, r, s=math.inf):
    """log f' of A x^r (up to s, then affine), and its slope in x."""
    slope = A * r * s ** (r - 1.0)
    return (
        lambda x: math.log(A * r) + (r - 1.0) * math.log(x) if x <= s else math.log(slope),
        lambda x: (r - 1.0) / x if x <= s else 0.0,
    )


# Each family's inverse of G(x) = (f(x) + S)^2 / f'(x), beside the analytic
# log f' and its slope, for the log-space reference.
G_INV_FAMILIES = {
    **{
        f"ratio:{c}": (RatioProduction(c),
                       lambda x, c=c: math.log(c) - 2.0 * math.log(x + c),
                       lambda x, c=c: -2.0 / (x + c))
        for c in (0.1, 1.0, 10.0)
    },
    **{
        f"cara:{a}": (CaraProduction(a),
                      lambda x, a=a: math.log(a) - a * x,
                      lambda x, a=a: -a)
        for a in (0.5, 1.0, 5.0)
    },
    **{
        f"power:{r}": (PowerProduction(1.0, r), *_power_log_f_prime(1.0, r))
        for r in (0.3, 0.5, 0.9, 0.999, 1.0)
    },
    **{
        f"piecewise:{A},{r},{s}": (PiecewisePowerAffineProduction(A, r, s),
                                   *_power_log_f_prime(A, r, s))
        for A, r, s in ((2.0, 0.5, 1.0), (1.0, 0.3, 5.0))
    },
}

_REFERENCE_REL_TOL = 1e-14


def _corner(pf, rivals):
    """G(0) = S^2 / f'(0), rounded as ``_battle_effort`` rounds it."""
    return rivals * (rivals / pf.f_prime(0.0))


def _g(pf, rivals, x):
    return (pf.f(x) + rivals) ** 2 / pf.f_prime(x)


def _g_root_reference(pf, log_f_prime, rivals, target):
    """Brent on G, or on log G where G leaves the float range."""
    try:
        return brent_increasing(lambda x: _g(pf, rivals, x), target, _REFERENCE_REL_TOL)
    except ArithmeticError:
        return brent_increasing(
            lambda x: 2.0 * math.log(pf.f(x) + rivals) - log_f_prime(x),
            math.log(target), _REFERENCE_REL_TOL,
        )


def _targets(pf, rivals):
    """Targets from just above the corner to 1e250, and around each kink."""
    g0 = _corner(pf, rivals)
    targets = [g0 * (1.0 + d) for d in (1e-9, 1e-6, 1e-3, 1.0)] if g0 > 0.0 else []
    if 4.0 * g0 < 1e250:
        targets += [float(t) for t in np.geomspace(max(4.0 * g0, 1e-300), 1e250, 24)]
    kinks = (pf.s,) if isinstance(pf, PiecewisePowerAffineProduction) else ()
    for kink in kinks:
        score = pf.f(kink) + rivals
        g_kink = score * (score / pf.f_prime(kink))
        targets += [g_kink * (1.0 + d) for d in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3)]
    return [t for t in targets if g0 < t < 1e251]


@pytest.mark.parametrize("name", sorted(G_INV_FAMILIES))
def test_closed_form_battle_effort_matches_a_root_search_on_g(name):
    pf, log_f_prime, log_f_prime_slope = G_INV_FAMILIES[name]
    for rivals in [*np.geomspace(1e-12, 1e12, 13), 1e100, 1e154]:
        rivals = float(rivals)
        g0 = _corner(pf, rivals)
        for target in _targets(pf, rivals):
            x = pf.g_inv(rivals, target, target - g0)
            if pf.f_prime(0.0) == math.inf and _g(pf, rivals, math.ulp(0.0)) >= target:
                # G rises from 0 so slowly that the root is below 5e-324.
                assert x == 0.0, (rivals, target, x)
                continue
            assert math.isfinite(x) and x > 0.0, (rivals, target, x)
            reference = _g_root_reference(pf, log_f_prime, rivals, target)
            # A target known to float precision fixes the root only to
            # eps * kappa, kappa = t / (x G'(x)) its condition number: about
            # t / (t - G(0)) next to the corner, below 1 away from it, and
            # up to 1 / (1 - r) for power where f is small against S.  At a
            # kink it is the larger of its two one-sided values.
            kappa = max(
                1.0 / (z * (2.0 * pf.f_prime(z) / (pf.f(z) + rivals) - log_f_prime_slope(z)))
                for z in (x, reference)
            )
            tol = 1e-12 + 16.0 * sys.float_info.epsilon * kappa
            assert x == pytest.approx(reference, rel=tol, abs=0.0), (
                rivals, target / g0 if g0 else target
            )


@pytest.mark.parametrize("alpha,target", [(1e300, 1e300), (1e308, 1e308), (1e308, 1.7e308)])
def test_cara_battle_effort_where_exp_of_alpha_x_passes_the_float_range(alpha, target):
    # Past alpha t of about 1e616 the root formula's sum overflows, and the
    # root is taken in logs.
    pf = CaraProduction(alpha)
    x = pf.g_inv(1.0, target, target - _corner(pf, 1.0))
    reference = _g_root_reference(pf, lambda x: math.log(alpha) - alpha * x, 1.0, target)
    assert x == pytest.approx(reference, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("pf,rivals,target", [
    (PowerProduction(1.0, 0.5), 1.0, 1e-200),
    (PowerProduction(3.0, 0.9), 1e-3, 1e-150),
    (PiecewisePowerAffineProduction(2.0, 0.5, 1.0), 1.0, 1e-200),
], ids=["power:1,0.5", "power:3,0.9", "piecewise:2,0.5,1"])
def test_battle_effort_whose_root_underflows_is_the_corner(pf, rivals, target):
    # G(5e-324) is above the target, so the root lies below every positive
    # float; the log-share Newton step underflows to 0 instead of raising.
    assert _g(pf, rivals, math.ulp(0.0)) > target
    assert pf.g_inv(rivals, target, target) == 0.0


def test_power_battle_effort_raises_when_newton_runs_out_of_steps(monkeypatch):
    pf = PowerProduction(1.0, 0.5)
    x = pf.g_inv(1.0, 10.0, 10.0)
    assert _g(pf, 1.0, x) == pytest.approx(10.0, rel=1e-14)
    monkeypatch.setattr(functions, "_G_NEWTON_STEPS", 1)
    with pytest.raises(NoConvergence):
        pf.g_inv(1.0, 10.0, 10.0)
    with pytest.raises(NoConvergence):
        PiecewisePowerAffineProduction(1.0, 0.5, 10.0).g_inv(1.0, 10.0, 10.0)


@pytest.mark.parametrize(
    "name", sorted(n for n, (pf, _, _) in G_INV_FAMILIES.items() if pf.f_prime(0.0) < math.inf)
)
def test_battle_effort_at_or_below_the_corner_is_zero(name):
    pf, _, _ = G_INV_FAMILIES[name]
    battle = Battle("b", (1, 2), 3.0, pf)
    for rivals in (1e-12, 1e-3, 1.0, 1e3, 1e12):
        g0 = _corner(pf, rivals)
        effort = _battle_effort(battle, rivals)
        for target in (g0 * (1.0 - 1e-9), g0 / 2.0, g0 * 1e-100):
            # Solve the target for the marginal cost, then read it back.
            lam = battle.prize * rivals / target
            assert battle.prize * (rivals / lam) <= g0
            assert effort(rivals / lam) == 0.0


@pytest.mark.parametrize("pf,log_f_prime,rivals,target", [
    # G(0) = S^2 c = 4e306
    (RatioProduction(0.01), lambda x: math.log(0.01) - 2.0 * math.log(x + 0.01),
     2e154, 1e308),
    # G(0) = S^2 / alpha = 1.125e308
    (CaraProduction(2.0), lambda x: math.log(2.0) - 2.0 * x, 1.5e154, 1.5e308),
    # G(0) = S^2 / A = 1.125e308; the effort is about 1.2e153
    (PowerProduction(2.0, 1.0), lambda x: math.log(2.0), 1.5e154, 1.5e308),
], ids=["ratio:0.01", "cara:2", "power:2,1"])
def test_battle_effort_where_the_square_of_the_rival_score_overflows(
    pf, log_f_prime, rivals, target
):
    # S * S is inf, while the corner G(0) = S^2 / f'(0) is a float under the
    # target: the effort is interior, not the corner.
    battle = Battle("b", (1, 2), 1.0, pf)
    lam = rivals / target
    x = _battle_effort(battle, rivals)(rivals / lam)
    reference = _g_root_reference(pf, log_f_prime, rivals, rivals / lam)
    assert x > 0.0 and x == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("pf", [
    PowerProduction(1.0, 1.0), PowerProduction(1.0, 0.5), RatioProduction(1.0),
    CaraProduction(1.0), PiecewisePowerAffineProduction(2.0, 0.5, 1.0),
])
def test_battle_effort_at_an_infinite_target_is_infinite(pf):
    # y = S / lam = 1.4 / 3e-309 overflows, as it does where a bracket
    # search on the total tries a total far below the root; g_inv alone
    # gives NaN.
    battle = Battle("b", (1, 2), 5e-300, pf)
    assert _battle_effort(battle, 1.4)(1.4 / 3e-309) == math.inf


def test_battle_effort_target_divides_before_it_multiplies():
    # v S = 1e300 * 1e10 overflows, while v S / lam = 1e300 does not: the
    # map takes y = S / lam and multiplies it by v.
    pf = PowerProduction(1.0, 0.5)
    battle = Battle("b", (1, 2), 1e300, pf)
    x = _battle_effort(battle, 1e10)(1e10 / 1e10)
    assert x > 0.0 and _g(pf, 1e10, x) == pytest.approx(1e300, rel=1e-13)


def test_no_battle_effort_searches_a_root(monkeypatch):
    calls = []

    def counting(g, target, rel_tol, seed=None):
        calls.append(target)
        return brent_increasing(g, target, rel_tol, seed=seed)

    monkeypatch.setattr(general_solver, "brent_increasing", counting)
    monkeypatch.setattr(equilibrium, "brent_increasing", counting)
    for pf in [
        RatioProduction(1.0), CaraProduction(1.0), PowerProduction(2.0, 1.0),
        PowerProduction(1.0, 0.5), PiecewisePowerAffineProduction(2.0, 0.5, 1.0),
        PiecewisePowerAffineProduction(2.0, 0.5, 0.01),
    ]:
        battle = Battle("b", (1, 2), 5.0, pf)
        x = _battle_effort(battle, 0.5)(0.5 / 1.0)
        assert x > 0.0, pf
        assert marginal_benefit(battle, x, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert calls == []


def _near_linear_power_network(rng, n_players, n_battles):
    """All-power network with r in [0.95, 0.999] and prizes in [10, 100]."""
    players = tuple(range(1, n_players + 1))
    battles = []
    for i in range(n_battles):
        k = int(rng.integers(2, 5))
        members = tuple(int(p) for p in rng.choice(players, size=k, replace=False))
        prize = float(np.exp(rng.uniform(np.log(10.0), np.log(100.0))))
        pf = PowerProduction(1.0, float(rng.uniform(0.95, 0.999)))
        battles.append(Battle(f"b{i}", members, prize, pf))
    cost = PowerCost(1.0, float(rng.choice([2.0, 3.0])))
    return ConflictNetwork(players, tuple(battles), cost)


def test_near_linear_power_network_reaches_a_certified_profile():
    # Some best responses along the way have their root below 5e-324.
    net = _near_linear_power_network(np.random.default_rng(3), 4, 6)
    out = solve_nash_iterative(net, IterationConfig(max_iterations=1000))
    assert out.converged
    assert out.deviation_gain <= 1e-6 * net.max_prize
