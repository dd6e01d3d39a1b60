"""Production and cost family behavior, derivatives, and assumptions."""

import math
import pickle

import numpy as np
import pytest

from conflictnet import (
    CaraProduction,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    ProductionFunction,
    RatioProduction,
)
from conflictnet.functions import cost_from_spec, production_from_spec

from conftest import BENCHMARK_PRODUCTIONS


GRID = np.geomspace(1e-3, 1e2, 64)


def finite_difference(fun, x, step=1e-6):
    return (fun(x + step) - fun(x - step)) / (2 * step)


def assert_maintained_assumptions(pf):
    """On ``GRID``: f(0) = 0, f' > 0, f' nonincreasing (concavity) and h
    strictly increasing."""
    xs = [float(x) for x in GRID]
    slopes = [pf.f_prime(x) for x in xs]
    hs = [pf.h(x) for x in xs]
    assert pf.f(0.0) == 0.0
    assert all(fp > 0 for fp in slopes)
    assert all(b <= a for a, b in zip(slopes, slopes[1:]))
    assert all(b > a for a, b in zip(hs, hs[1:]))


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_analytic_first_derivative_matches_finite_difference(name):
    pf = BENCHMARK_PRODUCTIONS[name]
    kinks = (pf.s,) if isinstance(pf, PiecewisePowerAffineProduction) else ()
    for x in (0.2, 0.7, 1.5, 3.0):
        if any(abs(x - k) < 1e-3 for k in kinks):
            continue
        approx = finite_difference(pf.f, x)
        assert pf.f_prime(x) == pytest.approx(approx, rel=1e-6)


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_h_equals_f_over_f_prime(name):
    pf = BENCHMARK_PRODUCTIONS[name]
    for x in GRID:
        assert pf.h(float(x)) == pytest.approx(
            pf.f(float(x)) / pf.f_prime(float(x)), rel=1e-12
        )


def test_power_sqrt_family_h_is_twice_x():
    pf = PowerProduction(A=2.0, r=0.5)
    assert_maintained_assumptions(pf)
    for x in GRID:
        assert pf.h(float(x)) == pytest.approx(2.0 * float(x), rel=1e-12)


def test_linear_power_h_at_one():
    assert PowerProduction(A=1.0, r=1.0).h(1.0) == pytest.approx(1.0)


def test_ratio_family_h_is_x_times_one_plus_x():
    pf = RatioProduction(c=1.0)
    assert_maintained_assumptions(pf)
    for x in GRID:
        x = float(x)
        assert pf.h(x) == pytest.approx(x * (1.0 + x), rel=1e-12)


def test_ratio_derivatives_past_the_overflow_of_the_power_of_x_plus_c():
    pf = RatioProduction(c=1.0)
    assert math.isfinite(pf.f_prime(1e300))
    # At x = c the derivative is 1/(4c); the shift puts (2c)^2 beyond the
    # float range but not its value.
    assert RatioProduction(c=1e160).f_prime(1e160) == pytest.approx(0.25e-160, rel=1e-15, abs=0.0)


def test_cara_h_matches_expm1():
    pf = CaraProduction(alpha=2.0)
    for x in (0.01, 0.5, 3.0):
        assert pf.h(x) == pytest.approx(math.expm1(2.0 * x) / 2.0, rel=1e-12)


def test_piecewise_branches_and_h():
    pf = PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0)
    assert pf.slope == pytest.approx(1.0)
    assert pf.intercept == pytest.approx(1.0)
    assert pf.f(0.25) == pytest.approx(1.0)
    assert pf.f(4.0) == pytest.approx(5.0)
    # value and slope agree at the breakpoint
    assert pf.f(1.0) == pytest.approx(2.0)
    assert pf.f_prime(0.999999) == pytest.approx(pf.f_prime(1.000001), rel=1e-5)
    assert pf.h(0.5) == pytest.approx(1.0)
    assert pf.h(1.5) == pytest.approx(2.5)
    # The affine branch's constants are cached on first use, out of sight of
    # equality, hashing, the spec and pickling.
    fresh = PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0)
    assert "slope" in vars(pf) and "slope" not in vars(fresh)
    assert pf == fresh and hash(pf) == hash(fresh)
    assert pf.to_spec() == {"family": "piecewise_power_affine",
                            "params": {"A": 2.0, "r": 0.5, "s": 1.0}}
    assert pickle.loads(pickle.dumps(pf)) == pf


@pytest.mark.parametrize("pf", [PowerProduction(A=1.0, r=1e-320),
                                PiecewisePowerAffineProduction(A=1.0, r=1e-320, s=1.0)],
                         ids=["power", "piecewise"])
def test_power_slope_at_a_subnormal_effort_with_a_tiny_exponent(pf):
    # x**(r - 1) alone overflows here, but f'(x) = A r / x**(1 - r), with
    # x**(1 - r) = x to float precision, does not.
    for x in (1e-320, 5e-324):
        assert pf.f_prime(x) == pf.r / x
    # The affine branch's slope is f' at the kink s.
    assert PiecewisePowerAffineProduction(A=1.0, r=1e-320, s=5e-324).slope == 1e-320 / 5e-324


def test_piecewise_affine_branch_where_the_slope_underflows():
    # a = A r s**(r - 1) = 5e-351 underflows to 0, while the shift h(x) - x
    # = b / a = s (1 - r) / r = 1e100 and Phi(s) = (f(s) + S)^2 / (S a) =
    # 8e100 at S = 1e-250 are floats; neither is taken by dividing by the
    # slope.
    pf = PiecewisePowerAffineProduction(A=1e-300, r=0.5, s=1e100)
    assert pf.slope == 0.0
    assert pf.h(3e100) == pytest.approx(4e100, rel=1e-15)
    assert pf.h_inv(4e100) == pytest.approx(3e100, rel=1e-15)
    rivals = 1e-250
    assert pf.g_inv(rivals, 7e100, 7e100) <= pf.s
    # Past Phi(s) the effort solves (a x + b + S)^2 = a S u, checked in logs
    # with the slope that the float a lost.
    u = 1e110
    x = pf.g_inv(rivals, u, u)
    log_a = math.log(1e-300 * 0.5) - 0.5 * math.log(1e100)
    score = pf.intercept + math.exp(log_a + math.log(x)) + rivals
    assert x > pf.s
    assert 2.0 * math.log(score) - log_a - math.log(rivals) == pytest.approx(
        math.log(u), rel=1e-13
    )
    assert pf.f(x) == pytest.approx(score - rivals, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x", [1.4337e150, 3e100, 1e300])
def test_piecewise_f_keeps_the_affine_term_where_the_slope_underflows(x):
    # f(x) = a x + b with a = A r / s^(1 - r) = 5e-351, a float 0: at x =
    # 1.4337e150 the term a x = 7.2e-201 dwarfs the intercept b = 5e-251.
    pf = PiecewisePowerAffineProduction(A=1e-300, r=0.5, s=1e100)
    a_x = math.exp(math.log(5e-301) - 0.5 * math.log(1e100) + math.log(x))
    assert pf.f(x) == pytest.approx(a_x + pf.intercept, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_benchmark_families_meet_the_maintained_assumptions(name):
    assert_maintained_assumptions(BENCHMARK_PRODUCTIONS[name])


def test_random_powers_meet_the_maintained_assumptions():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pf = PowerProduction(A=float(rng.uniform(0.2, 5)), r=float(rng.uniform(0.05, 1)))
        assert_maintained_assumptions(pf)


def test_production_interface_is_two_derivatives_h_and_its_inverse():
    assert ProductionFunction.__abstractmethods__ == {
        "f", "f_prime", "h", "h_inv", "g_inv",
    }


@pytest.mark.parametrize(
    "bad",
    [
        lambda: PowerProduction(A=0.0, r=0.5),
        lambda: PowerProduction(A=1.0, r=0.0),
        lambda: PowerProduction(A=1.0, r=1.5),
        lambda: RatioProduction(c=0.0),
        lambda: CaraProduction(alpha=-1.0),
        lambda: PiecewisePowerAffineProduction(A=1.0, r=0.5, s=0.0),
        lambda: PowerCost(kappa=0.0),
        lambda: PowerCost(p=0.5),
        lambda: PowerProduction(A=math.inf, r=0.5),
        lambda: RatioProduction(c=math.inf),
        lambda: CaraProduction(alpha=math.inf),
        lambda: PiecewisePowerAffineProduction(A=1.0, r=0.5, s=math.inf),
        lambda: PowerCost(kappa=math.inf),
        lambda: PowerCost(p=math.inf),
    ],
    # Explicit ids, so strict collection accepts them, under the names the
    # cases have always been reported by.
    ids=[f"<lambda>{i}" for i in range(14)],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_cost_function_values_and_derivatives():
    cost = PowerCost(kappa=1.0, p=2.0)
    assert cost.c(3.0) == pytest.approx(4.5)
    assert cost.c_prime(3.0) == pytest.approx(3.0)

    cubic = PowerCost(kappa=2.0, p=3.0)
    assert cubic.c(2.0) == pytest.approx(16.0 / 3.0)
    assert cubic.c_prime(2.0) == pytest.approx(8.0)

    linear = PowerCost(kappa=0.7, p=1.0)
    assert linear.c_prime(5.0) == pytest.approx(0.7)


@pytest.mark.parametrize("kappa,p,total,cost,marginal", [
    # total**p overflows; kappa brings the cost back into range.
    (1e-300, 2.0, 1e300, 5e299, 1.0),
    (1e-300, 3.0, 1e200, 1e300 / 3.0, 1e100),
    # total**p underflows below the normal floats; kappa lifts it back.
    (1e300, 3.0, 1e-200, 1e-300 / 3.0, 1e-100),
])
def test_cost_stays_finite_where_only_the_power_leaves_float_range(kappa, p, total, cost, marginal):
    power = PowerCost(kappa=kappa, p=p)
    assert power.c(total) == pytest.approx(cost, rel=1e-13, abs=0.0)
    assert power.c_prime(total) == pytest.approx(marginal, rel=1e-13, abs=0.0)


def test_cost_in_float_range_is_the_plain_product():
    for kappa, p, total in [(1.0, 2.0, 3.0), (2.0, 3.0, 2.5), (0.3, 2.7, 1e10), (5.0, 1.5, 1e-30)]:
        cost = PowerCost(kappa=kappa, p=p)
        assert cost.c(total) == kappa * total**p / p
        assert cost.c_prime(total) == kappa * total ** (p - 1.0)
    # Past every float the cost is inf, as the product's overflow is.
    assert PowerCost(kappa=1.0, p=3.0).c_prime(1e200) == math.inf


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_spec_round_trip(name):
    pf = BENCHMARK_PRODUCTIONS[name]
    assert production_from_spec(pf.to_spec()) == pf


def test_cost_spec_round_trip():
    cost = PowerCost(kappa=1.5, p=2.5)
    assert cost_from_spec(cost.to_spec()) == cost


def test_spec_parsing_rejects_unknown_families_and_params():
    with pytest.raises(ValueError, match="unknown production family"):
        production_from_spec({"family": "exponential", "params": {"alpha": 1}})
    with pytest.raises(ValueError, match="missing params"):
        production_from_spec({"family": "power", "params": {"A": 1}})
    with pytest.raises(ValueError, match="unknown params"):
        production_from_spec({"family": "ratio", "params": {"c": 1, "z": 2}})
    with pytest.raises(ValueError, match="unknown cost family"):
        cost_from_spec({"family": "exp", "params": {}})
    # A field with a default may be left out.
    assert cost_from_spec({"family": "power", "params": {"p": 3}}) == PowerCost(1.0, 3.0)
    # The family class variable is no parameter.
    with pytest.raises(ValueError, match="unknown params"):
        cost_from_spec({"family": "power", "params": {"kappa": 1, "family": 1}})


# ---------------------------------------------------------------------------
# Closed-form inverse of h
# ---------------------------------------------------------------------------

# Beside the benchmark four: extreme shifts and rates whose intermediate
# products (y / c, alpha * y) leave the float range somewhere in 1e-300..1e300.
H_INV_PRODUCTIONS = {
    **BENCHMARK_PRODUCTIONS,
    "power-r-0.01": PowerProduction(A=1.0, r=0.01),
    "ratio-c-1e200": RatioProduction(c=1e200),
    "ratio-c-1e-200": RatioProduction(c=1e-200),
    "cara-alpha-1e10": CaraProduction(alpha=1e10),
    "cara-alpha-1e-10": CaraProduction(alpha=1e-10),
    "piecewise-r-0.01": PiecewisePowerAffineProduction(A=1.0, r=0.01, s=1e-3),
}

H_TARGETS = [m * 10.0**e for e in range(-300, 301, 5) for m in (1.0, 3.7)]


def _h_round_trip_error(pf, y):
    x = pf.h_inv(y)
    assert 0.0 < x < math.inf, (y, x)
    error = abs(pf.h(x) - y) / y
    if isinstance(pf, CaraProduction):
        # h's relative condition number is about alpha x (up to ~700 here):
        # no float x reproduces y closer than that many ulps.
        error /= max(1.0, pf.alpha * x)
    return error


@pytest.mark.parametrize("name", sorted(H_INV_PRODUCTIONS))
def test_h_inv_round_trips_from_1e_minus_300_to_1e300(name):
    pf = H_INV_PRODUCTIONS[name]
    for y in H_TARGETS:
        assert _h_round_trip_error(pf, y) <= 1e-14, y


def test_piecewise_h_inv_at_and_around_the_breakpoint():
    pf = BENCHMARK_PRODUCTIONS["piecewise"]
    corner = pf.s / pf.r
    below, above = math.nextafter(corner, 0.0), math.nextafter(corner, math.inf)
    for y in (corner * (1 - 1e-3), below, corner, above, corner * (1 + 1e-3)):
        assert pf.h(pf.h_inv(y)) == pytest.approx(y, rel=1e-14)
    assert pf.h_inv(corner) == pytest.approx(pf.s, rel=1e-15)
    assert pf.h_inv(below) <= pf.h_inv(corner) <= pf.h_inv(above)


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_h_inv_undoes_h(name):
    pf = BENCHMARK_PRODUCTIONS[name]
    for x in H_TARGETS:
        y = pf.h(x)
        if y < math.inf:
            assert pf.h_inv(y) == pytest.approx(x, rel=1e-14, abs=0.0), x


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
@pytest.mark.parametrize("y", [-1.0, math.nan])
def test_h_inv_rejects_targets_that_are_not_positive(name, y):
    with pytest.raises(ValueError):
        BENCHMARK_PRODUCTIONS[name].h_inv(y)


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_h_inv_of_zero_is_the_corner(name):
    # A first-order target that underflowed to 0 means an effort below float
    # range: the corner 0, not an error.
    x = BENCHMARK_PRODUCTIONS[name].h_inv(0.0)
    assert x == 0.0 and math.copysign(1.0, x) == 1.0
    with pytest.raises(ValueError, match="non-negative"):
        BENCHMARK_PRODUCTIONS[name].h_inv(-5e-324)
