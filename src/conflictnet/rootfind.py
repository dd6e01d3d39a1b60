"""Monotone scalar root finding on the positive axis.

The solvers in this package reduce every equilibrium computation to roots of
strictly monotone scalar functions, all solved by one bracketed method
(`brent_increasing`): geometric bracket expansion from a positive seed,
then Brent's method (Brent 1973), whose bisection fallback needs nothing
beyond monotonicity and therefore tolerates kinks in piecewise production
functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import BracketFailure, NoConvergence, NonFiniteEvaluation
from .functions import ProductionFunction

__all__ = ["BracketingConfig", "brent_increasing", "invert_h"]


@dataclass(frozen=True)
class BracketingConfig:
    """Bracket expansion and termination parameters."""

    initial_guess: float = 1.0
    expansion_factor: float = 2.0
    max_expansions: int = 200
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if not self.initial_guess > 0:
            raise ValueError("initial guess must be positive")
        if not self.expansion_factor > 1:
            raise ValueError("expansion factor must exceed 1")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")

    def width_tol(self, x: float) -> float:
        return self.abs_tol + self.rel_tol * abs(x)


DEFAULT_CONFIG = BracketingConfig()


def _checked(g: Callable[[float], float], x: float) -> float:
    value = g(x)
    if math.isnan(value):
        raise NonFiniteEvaluation(f"function returned NaN at x={x!r}")
    return value


def _expand_bracket(g, target, cfg, seed=None):
    """Find lo < hi with g(lo) <= target <= g(hi) by geometric expansion.

    Expansion runs downward and upward from the seed.  An overflow of ``g``
    to +inf counts as being above the target: the functions inverted here
    grow without bound, so overflow only ever happens past the root.
    """
    x0 = cfg.initial_guess if seed is None else seed
    y0 = _checked(g, x0)
    if y0 == target:
        return x0, x0

    factor = cfg.expansion_factor
    if y0 < target:
        lo, hi = x0, x0 * factor
        for _ in range(cfg.max_expansions):
            y = _checked(g, hi)
            if y >= target:
                return lo, hi
            lo, hi = hi, hi * factor
        raise BracketFailure(
            f"no upper bracket for target {target!r} after "
            f"{cfg.max_expansions} expansions from {x0!r}"
        )
    lo, hi = x0 / factor, x0
    for _ in range(cfg.max_expansions):
        y = _checked(g, lo)
        if y <= target:
            return lo, hi
        lo, hi = lo / factor, lo
    raise BracketFailure(
        f"no lower bracket for target {target!r} after "
        f"{cfg.max_expansions} expansions from {x0!r}"
    )


def brent_increasing(
    g: Callable[[float], float],
    target: float,
    cfg: BracketingConfig = DEFAULT_CONFIG,
    seed: float | None = None,
) -> float:
    """Solve ``g(x) = target`` for strictly increasing ``g`` on ``(0, inf)``.

    The caller is responsible for the range of ``g`` covering the target.
    Deterministic for a fixed configuration: bracket by geometric expansion
    from the seed, then take inverse quadratic and secant steps, falling back
    to bisection whenever they stall (infinite values force bisection), until
    the bracket width drops below ``abs_tol + rel_tol * |x|`` or to float
    spacing.

    Raises:
        BracketFailure: expansion exhausted without straddling the target.
        NonFiniteEvaluation: ``g`` returned NaN.
        NoConvergence: ``max_iterations`` steps left the bracket open.
    """
    lo, hi = _expand_bracket(g, target, cfg, seed)
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
    for _ in range(cfg.max_iterations):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # Brent's floor of two machine epsilons keeps a tolerance finer than
        # float spacing from stalling the bracket one ulp wide.
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * cfg.width_tol(b)
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
        f"open after {cfg.max_iterations} iterations"
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
