"""Monotone root-finding primitives and h inversion."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictnet import (
    BracketFailure,
    CaraProduction,
    NoConvergence,
    NonFiniteEvaluation,
    PiecewisePowerAffineProduction,
    PowerProduction,
    RatioProduction,
    brent_increasing,
)

from conflictnet import rootfind
from conftest import BENCHMARK_PRODUCTIONS


def closed_form_h_inverse(pf, y):
    """Exact ``h^{-1}(y)`` per family, independent of any root finder."""
    if isinstance(pf, PowerProduction):
        return pf.r * y
    if isinstance(pf, RatioProduction):
        c = pf.c
        return 2 * c * y / (c + math.sqrt(c * c + 4 * c * y))
    if isinstance(pf, CaraProduction):
        return math.log1p(pf.alpha * y) / pf.alpha
    if isinstance(pf, PiecewisePowerAffineProduction):
        # h(x) = x/r up to the breakpoint s, then x + b/a.
        if y <= pf.s / pf.r:
            return pf.r * y
        return y - pf.intercept / pf.slope
    raise TypeError(type(pf).__name__)


def test_linear_target():
    assert brent_increasing(lambda x: 2 * x, 3.0) == pytest.approx(1.5, rel=1e-10)


def test_quadratic_target():
    assert brent_increasing(lambda x: x * (1 + x), 2.0) == pytest.approx(1.0, rel=1e-10)


def test_cara_h_inversion_hits_log_two():
    # h(x) = exp(x) - 1 for unit rate, so h(x) = 1 at x = ln 2.
    pf = CaraProduction(alpha=1.0)
    assert brent_increasing(pf.h, 1.0) == pytest.approx(math.log(2.0), rel=1e-9)
    assert pf.h_inv(1.0) == pytest.approx(math.log(2.0), rel=1e-9)


def test_invert_h_power_family():
    pf = PowerProduction(A=2.0, r=0.5)
    assert pf.h_inv(6.0825) == pytest.approx(3.04125, rel=1e-9)


def test_invert_h_ratio_family():
    assert RatioProduction(1.0).h_inv(2.0) == pytest.approx(1.0, rel=1e-9)


def test_invert_h_piecewise_above_breakpoint():
    pf = PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0)
    assert pf.h_inv(2.5) == pytest.approx(1.5, rel=1e-9)


def test_invert_h_rejects_negative_target():
    with pytest.raises(ValueError):
        PowerProduction(1.0, 1.0).h_inv(-1.0)


def test_bracket_failure_on_bounded_function():
    with pytest.raises(BracketFailure):
        brent_increasing(math.atan, 2.0)


@pytest.mark.parametrize(
    "g, target, root",
    [(math.atan, 2.0, None), (lambda x: x, -1.0, None), (lambda x: x, 1e-320, 1e-320)],
)
def test_expansion_never_evaluates_at_zero_or_infinity(g, target, root):
    def guarded(x):
        assert 0.0 < x < math.inf, f"evaluated at {x!r}"
        return g(x)

    if root is None:
        with pytest.raises(BracketFailure):
            brent_increasing(guarded, target)
    else:
        assert brent_increasing(guarded, target) == root


@pytest.mark.parametrize("target", [1e-300, 1e-150, 1e-22, 1e22, 1e150, 1e300])
def test_relative_accuracy_at_every_scale(target):
    assert brent_increasing(lambda x: x**3, target) == pytest.approx(
        target ** (1 / 3), rel=1e-10, abs=0.0
    )
    assert brent_increasing(lambda x: x * (1 + x), target) == pytest.approx(
        closed_form_h_inverse(RatioProduction(1.0), target), rel=1e-10, abs=0.0
    )


def test_seed_must_be_positive_and_finite():
    for seed in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            brent_increasing(lambda x: x, 1.0, seed=seed)


def test_nan_evaluations_are_rejected():
    with pytest.raises(NonFiniteEvaluation):
        brent_increasing(lambda x: math.nan, 1.0)


def test_deterministic_for_fixed_config():
    a = brent_increasing(lambda x: x**3, 11.0, 1e-10)
    b = brent_increasing(lambda x: x**3, 11.0, 1e-10)
    assert a == b


def test_exhausted_iterations_raise(monkeypatch):
    # Seven Brent steps close this bracket; three must not return a value.
    monkeypatch.setattr(rootfind, "MAX_ITERATIONS", 3)
    with pytest.raises(NoConvergence):
        brent_increasing(lambda x: x**3, 11.0)
    monkeypatch.undo()
    assert brent_increasing(lambda x: x**3, 11.0) == pytest.approx(11.0 ** (1 / 3), rel=1e-10)


def test_tolerance_below_float_spacing_still_converges():
    assert brent_increasing(lambda x: x * (x + 1), 0.625, 1e-300) == pytest.approx(
        (math.sqrt(3.5) - 1) / 2, rel=1e-15
    )


def test_config_validation():
    for rel_tol in (0.0, math.inf):
        with pytest.raises(ValueError):
            brent_increasing(lambda x: x, 1.0, rel_tol)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_non_finite_target_is_rejected_before_any_evaluation(target):
    def g(x):
        raise AssertionError(f"evaluated at {x!r}")

    with pytest.raises(ValueError, match="target"):
        brent_increasing(g, target)


@pytest.mark.parametrize("seed", [1.0, 1e-3, 1e3, 1e-100, 1e100])
def test_no_point_is_evaluated_twice(seed):
    seen = []

    def g(x):
        seen.append(x)
        return x**3

    root = brent_increasing(g, 11.0, seed=seed)
    assert root == pytest.approx(11.0 ** (1 / 3), rel=1e-10)
    assert len(seen) == len(set(seen))


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARK_PRODUCTIONS)),
    exponent=st.floats(min_value=-6.0, max_value=6.0),
)
def test_invert_h_round_trip_over_twelve_decades(name, exponent):
    pf = BENCHMARK_PRODUCTIONS[name]
    x = 10.0**exponent
    y = pf.h(x)
    if not math.isfinite(y):
        return
    assert pf.h_inv(y) == pytest.approx(x, rel=1e-8, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARK_PRODUCTIONS)),
    y1=st.floats(min_value=1e-4, max_value=1e3),
    y2=st.floats(min_value=1e-4, max_value=1e3),
)
def test_invert_h_is_monotone_in_target(name, y1, y2):
    if y1 == y2:
        return
    lo, hi = sorted((y1, y2))
    pf = BENCHMARK_PRODUCTIONS[name]
    assert pf.h_inv(lo) < pf.h_inv(hi)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARK_PRODUCTIONS)),
    target=st.floats(min_value=1e-3, max_value=1e3),
)
def test_brent_agrees_with_closed_form_inverse(name, target):
    pf = BENCHMARK_PRODUCTIONS[name]
    assert brent_increasing(pf.h, target) == pytest.approx(
        closed_form_h_inverse(pf, target), rel=1e-8, abs=0.0
    )


def test_brent_handles_kinked_functions():
    pf = PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0)
    for target in (0.5, 1.999, 2.0, 2.001, 50.0):
        x = brent_increasing(pf.h, target)
        assert pf.h(x) == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("seed", [1e-300, 1e-100, 1e100, 1e300])
@pytest.mark.parametrize("root", [1e-300, 1.0, 1e300])
def test_a_seed_far_from_the_root_gallops_to_it(seed, root):
    # Doubling or halving took up to about 2,000 evaluations here.
    seen = []

    def g(x):
        seen.append(x)
        return x

    assert brent_increasing(g, root, seed=seed) == pytest.approx(root, rel=1e-10, abs=0.0)
    assert len(seen) <= 32


def test_an_overflow_above_the_seed_counts_as_above_the_target():
    def g(x):
        if x > 1e10:
            raise OverflowError("too large")
        return x

    assert brent_increasing(g, 5.0, seed=1e-3) == pytest.approx(5.0, rel=1e-10)
    assert brent_increasing(g, 5e9, seed=1.0) == pytest.approx(5e9, rel=1e-10)


def test_an_overflow_at_the_seed_is_raised():
    def g(x):
        raise OverflowError("forced")

    with pytest.raises(OverflowError, match="forced"):
        brent_increasing(g, 1.0)
