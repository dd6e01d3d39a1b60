"""Production and cost family behavior, derivatives, and validation."""

import math

import numpy as np
import pytest

from conflictnet import (
    CaraProduction,
    NonFiniteEvaluation,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    ProductionFunction,
    RatioProduction,
    validate_production,
)
from conflictnet.functions import cost_from_spec, production_from_spec

from conftest import BENCHMARK_PRODUCTIONS


GRID = np.geomspace(1e-3, 1e2, 64)


def finite_difference(fun, x, step=1e-6):
    return (fun(x + step) - fun(x - step)) / (2 * step)


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
    report = validate_production(pf)
    assert report.passed
    for x in GRID:
        assert pf.h(float(x)) == pytest.approx(2.0 * float(x), rel=1e-12)


def test_linear_power_h_at_one():
    assert PowerProduction(A=1.0, r=1.0).h(1.0) == pytest.approx(1.0)


def test_ratio_family_h_is_x_times_one_plus_x():
    pf = RatioProduction(c=1.0)
    report = validate_production(pf)
    assert report.passed
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


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_validation_passes_for_benchmark_families(name):
    report = validate_production(BENCHMARK_PRODUCTIONS[name])
    assert report.passed, report.failures()


def test_validation_h_monotone_for_random_powers():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pf = PowerProduction(A=float(rng.uniform(0.2, 5)), r=float(rng.uniform(0.05, 1)))
        report = validate_production(pf)
        assert report.passed


class _BrokenProduction(ProductionFunction):
    family = "broken"

    def f(self, x):
        return math.nan

    def f_prime(self, x):
        return 1.0

    def h(self, x):
        return x

    def h_inv(self, y):
        return y

    def g_inv(self, rivals, target, excess):
        return excess

    def to_spec(self):
        return {"family": "broken", "params": {}}


def test_validation_raises_on_non_finite_values():
    with pytest.raises(NonFiniteEvaluation):
        validate_production(_BrokenProduction())


class _ConvexProduction(_BrokenProduction):
    """f = x^2: increasing with h = x / 2 increasing, but convex."""

    family = "convex"

    def f(self, x):
        return x * x

    def f_prime(self, x):
        return 2.0 * x

    def h(self, x):
        return 0.5 * x


def test_validation_fails_a_convex_production_on_its_slope_alone():
    assert validate_production(_ConvexProduction()).failures() == ["f_prime_nonincreasing"]


@pytest.mark.parametrize("name", sorted(BENCHMARK_PRODUCTIONS))
def test_validation_reads_only_f_f_prime_and_h(monkeypatch, name):
    # f at 0 and on the 64-point grid, f' and h on the grid; nothing else.
    pf = BENCHMARK_PRODUCTIONS[name]
    methods = ("f", "f_prime", "h", "h_inv", "g_inv", "h_curvature", "to_spec")
    calls = dict.fromkeys(methods, 0)
    for method in methods:
        original = getattr(type(pf), method)

        def counting(self, *args, method=method, original=original):
            calls[method] += 1
            return original(self, *args)

        monkeypatch.setattr(type(pf), method, counting)
    assert validate_production(pf).passed
    assert calls == {**dict.fromkeys(methods, 0), "f": 65, "f_prime": 64, "h": 64}


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
    assert cost.is_unit_quadratic

    cubic = PowerCost(kappa=2.0, p=3.0)
    assert cubic.c(2.0) == pytest.approx(16.0 / 3.0)
    assert cubic.c_prime(2.0) == pytest.approx(8.0)
    assert not cubic.is_unit_quadratic

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
