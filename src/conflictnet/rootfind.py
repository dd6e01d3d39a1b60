"""Monotone scalar root finding on the positive axis.

The solvers in this package reduce every equilibrium computation to roots of
strictly monotone scalar functions, all solved by one bracketed method
(`brent_increasing`): doubling or halving from a positive seed across the
float range, then Brent's method (Brent 1973) with a purely relative stopping
rule, whose bisection fallback needs nothing beyond monotonicity and
therefore tolerates kinks in piecewise production functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import BracketFailure, NoConvergence, NonFiniteEvaluation
from .functions import ProductionFunction

__all__ = ["BracketingConfig", "brent_increasing", "invert_h"]

# Brent steps allowed once the bracket is found; reaching it raises.
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class BracketingConfig:
    """Relative width at which Brent's method stops: ``rel_tol * |x|``."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("tolerance must be positive and finite")


DEFAULT_CONFIG = BracketingConfig()


def _checked(g: Callable[[float], float], x: float) -> float:
    value = g(x)
    if math.isnan(value):
        raise NonFiniteEvaluation(f"function returned NaN at x={x!r}")
    return value


def _expand_bracket(g, target, seed):
    """Find lo < hi with g(lo) <= target <= g(hi) by doubling or halving.

    Expansion runs from the seed until the next point would leave the float
    range (0 or +inf); ``g`` is never evaluated at either end.  An overflow
    of ``g`` to +inf counts as being above the target: the functions inverted
    here grow without bound, so overflow only ever happens past the root.
    """
    if not 0 < seed < math.inf:
        raise ValueError(f"bracket seed must be positive and finite, got {seed!r}")
    y0 = _checked(g, seed)
    if y0 == target:
        return seed, seed

    if y0 < target:
        lo, hi = seed, seed * 2.0
        while hi < math.inf:
            if _checked(g, hi) >= target:
                return lo, hi
            lo, hi = hi, hi * 2.0
        raise BracketFailure(f"no upper bracket for target {target!r}: g < target up to {lo!r}")
    lo, hi = seed / 2.0, seed
    while lo > 0.0:
        if _checked(g, lo) <= target:
            return lo, hi
        lo, hi = lo / 2.0, lo
    raise BracketFailure(f"no lower bracket for target {target!r}: g > target down to {hi!r}")


def brent_increasing(
    g: Callable[[float], float],
    target: float,
    cfg: BracketingConfig = DEFAULT_CONFIG,
    seed: float | None = None,
) -> float:
    """Solve ``g(x) = target`` for strictly increasing ``g`` on ``(0, inf)``.

    The caller is responsible for the range of ``g`` covering the target.
    Deterministic for a fixed configuration: bracket by doubling or halving
    from the seed (1.0 unless given) through the whole positive float range,
    then take inverse quadratic and secant steps, falling back to bisection
    whenever they stall (infinite values force bisection), until the bracket
    half-width drops to ``0.5 * rel_tol * |x|`` or to float spacing: the same
    relative accuracy at every scale.

    Raises:
        BracketFailure: no float in ``(0, inf)`` straddles the target.
        NonFiniteEvaluation: ``g`` returned NaN.
        NoConvergence: ``MAX_ITERATIONS`` steps left the bracket open.
    """
    lo, hi = _expand_bracket(g, target, 1.0 if seed is None else seed)
    if lo == hi:
        return lo

    def phi(x):
        y = _checked(g, x)
        if math.isinf(y):
            return math.copysign(1e300, y)
        return y - target

    a, b = lo, hi
    fa, fb = phi(a), phi(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    for _ in range(MAX_ITERATIONS):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # Brent's floor of two machine epsilons keeps a tolerance finer than
        # float spacing from stalling the bracket one ulp wide.
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * cfg.rel_tol * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = phi(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise NoConvergence(
        f"bracket [{min(b, c)!r}, {max(b, c)!r}] for target {target!r} still "
        f"open after {MAX_ITERATIONS} iterations"
    )


def invert_h(
    pf: ProductionFunction,
    y: float,
    cfg: BracketingConfig = DEFAULT_CONFIG,
    seed: float | None = None,
) -> float:
    """Unique positive ``x`` with ``h(x) = y`` for a valid production function.

    ``h`` is strictly increasing from 0 to +inf, so any ``y > 0`` has exactly
    one preimage.
    """
    if not y > 0:
        raise ValueError(f"h target must be positive, got {y!r}")
    return brent_increasing(pf.h, y, cfg, seed)
