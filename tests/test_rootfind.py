"""Monotone root-finding primitives and h inversion."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictnet import (
    BracketFailure,
    BracketingConfig,
    CaraProduction,
    NoConvergence,
    NonFiniteEvaluation,
    PiecewisePowerAffineProduction,
    PowerProduction,
    RatioProduction,
    brent_increasing,
    invert_h,
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
    assert invert_h(pf, 1.0) == pytest.approx(math.log(2.0), rel=1e-9)


def test_invert_h_power_family():
    pf = PowerProduction(A=2.0, r=0.5)
    assert invert_h(pf, 6.0825) == pytest.approx(3.04125, rel=1e-9)


def test_invert_h_ratio_family():
    assert invert_h(RatioProduction(1.0), 2.0) == pytest.approx(1.0, rel=1e-9)


def test_invert_h_piecewise_above_breakpoint():
    pf = PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0)
    assert invert_h(pf, 2.5) == pytest.approx(1.5, rel=1e-9)


def test_invert_h_requires_positive_target():
    with pytest.raises(ValueError):
        invert_h(PowerProduction(1.0, 1.0), 0.0)


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
        target ** (1 / 3), rel=1e-10
    )
    assert brent_increasing(lambda x: x * (1 + x), target) == pytest.approx(
        closed_form_h_inverse(RatioProduction(1.0), target), rel=1e-10
    )


def test_seed_must_be_positive_and_finite():
    for seed in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            brent_increasing(lambda x: x, 1.0, seed=seed)


def test_nan_evaluations_are_rejected():
    with pytest.raises(NonFiniteEvaluation):
        brent_increasing(lambda x: math.nan, 1.0)


def test_deterministic_for_fixed_config():
    cfg = BracketingConfig()
    a = brent_increasing(lambda x: x**3, 11.0, cfg)
    b = brent_increasing(lambda x: x**3, 11.0, cfg)
    assert a == b


def test_exhausted_iterations_raise(monkeypatch):
    # Seven Brent steps close this bracket; three must not return a value.
    monkeypatch.setattr(rootfind, "MAX_ITERATIONS", 3)
    with pytest.raises(NoConvergence):
        brent_increasing(lambda x: x**3, 11.0)
    monkeypatch.undo()
    assert brent_increasing(lambda x: x**3, 11.0) == pytest.approx(11.0 ** (1 / 3), rel=1e-10)


def test_tolerance_below_float_spacing_still_converges():
    cfg = BracketingConfig(rel_tol=1e-300)
    assert brent_increasing(lambda x: x * (x + 1), 0.625, cfg) == pytest.approx(
        (math.sqrt(3.5) - 1) / 2, rel=1e-15
    )


def test_config_validation():
    with pytest.raises(ValueError):
        BracketingConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        BracketingConfig(rel_tol=math.inf)


def test_config_has_one_relative_tolerance():
    assert [f.name for f in dataclasses.fields(BracketingConfig)] == ["rel_tol"]


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
    assert invert_h(pf, y) == pytest.approx(x, rel=1e-8)


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
    assert invert_h(pf, lo) < invert_h(pf, hi)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARK_PRODUCTIONS)),
    target=st.floats(min_value=1e-3, max_value=1e3),
)
def test_brent_agrees_with_closed_form_inverse(name, target):
    pf = BENCHMARK_PRODUCTIONS[name]
    assert brent_increasing(pf.h, target) == pytest.approx(
        closed_form_h_inverse(pf, target), rel=1e-8
    )


def test_brent_handles_kinked_functions():
    pf = PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0)
    for target in (0.5, 1.999, 2.0, 2.001, 50.0):
        x = brent_increasing(pf.h, target)
        assert pf.h(x) == pytest.approx(target, rel=1e-9)
