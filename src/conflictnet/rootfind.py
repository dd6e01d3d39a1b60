"""Monotone scalar root finding on the positive axis.

The solvers in this package reduce every equilibrium computation to roots of
strictly monotone scalar functions, all solved by one bracketed method
(`brent_increasing`): a galloping bracket search from a positive seed
across the float range, then Brent's method (Brent 1973) with a purely
relative stopping rule, whose bisection fallback needs nothing beyond
monotonicity and therefore tolerates kinks in piecewise production
functions.  Both stages evaluate through one function, and Brent starts from
the values the bracket search found at the bracket's ends, so no point is
evaluated twice.
Inverting ``h`` needs no root find: every production family has a
closed-form ``h_inv``, so a structured solve is one call of this solver.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import BracketFailure, NoConvergence, NonFiniteEvaluation

__all__ = ["REL_TOL", "brent_increasing"]

# Relative width at which Brent's method stops: ``rel_tol * |x|``.
REL_TOL = 1e-10

# Brent steps allowed once the bracket is found; reaching it raises.
MAX_ITERATIONS = 200

_SMALLEST = math.ulp(0.0)
_LARGEST = sys.float_info.max


def _expand_bracket(phi, target, seed):
    """Find a < b <= 2a with phi(a) <= 0 <= phi(b) by galloping from the seed.

    Returns ``(a, phi(a), b, phi(b))``, one of which may be an exact zero.
    The search steps by a factor of 2 and then squares the factor at every
    step (4, 16, 256, ...), ending at the largest or smallest positive
    float, so a root 1e300 away takes about 10 steps, not 1000; then it
    bisects geometrically down to a factor of 2.
    """
    a = b = seed
    fa = fb = phi(seed)
    rising = fa < 0.0
    step, end = (2.0, _LARGEST) if rising else (0.5, _SMALLEST)
    while fb != 0.0 and (fb < 0.0) == rising:
        if b == end:
            raise BracketFailure(
                f"no upper bracket for target {target!r}: g < target up to {b!r}"
                if rising
                else f"no lower bracket for target {target!r}: g > target down to {b!r}"
            )
        a, fa = b, fb
        b *= step
        if not _SMALLEST <= b <= _LARGEST:
            b = end
        fb = phi(b)
        step *= step
    lo, flo, hi, fhi = (a, fa, b, fb) if a < b else (b, fb, a, fa)
    while hi / 2.0 > lo and flo != 0.0 and fhi != 0.0:
        mid = math.sqrt(lo) * math.sqrt(hi)
        fmid = phi(mid)
        if fmid < 0.0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo, flo, hi, fhi


def brent_increasing(
    g: Callable[[float], float],
    target: float,
    rel_tol: float = REL_TOL,
    seed: float | None = None,
) -> float:
    """Solve ``g(x) = target`` for strictly increasing ``g`` on ``(0, inf)``.

    The caller is responsible for the range of ``g`` covering the target.
    Deterministic for a fixed tolerance: bracket by a galloping search from
    the seed (1.0 unless given) through the whole positive float range, then
    take inverse quadratic and secant steps, falling back to bisection
    whenever they stall (infinite values force bisection), until the bracket
    half-width drops to ``0.5 * rel_tol * |x|`` or to float spacing: the same
    relative accuracy at every scale.  An overflow of ``g`` to +inf, or an
    ``OverflowError`` raised by ``g`` above the seed, counts as being above
    the target: the functions solved here grow without bound, so
    overflow only ever happens past the root.  A point where ``g`` equals the
    target exactly is returned as the root.

    Raises:
        ValueError: ``rel_tol``, ``target`` or ``seed`` is out of range.
        BracketFailure: no float in ``(0, inf)`` straddles the target.
        NonFiniteEvaluation: ``g`` returned NaN.
        NoConvergence: ``MAX_ITERATIONS`` steps left the bracket open.
    """
    if not 0 < rel_tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target!r}")
    seed = 1.0 if seed is None else seed
    if not 0 < seed < math.inf:
        raise ValueError(f"bracket seed must be positive and finite, got {seed!r}")

    def phi(x):
        try:
            y = g(x)
        except OverflowError:
            # Above the seed, where g was finite, g overflowed by growing
            # past the target; at or below it the overflow is the caller's.
            if x <= seed:
                raise
            y = math.inf
        if math.isnan(y):
            raise NonFiniteEvaluation(f"function returned NaN at x={x!r}")
        if math.isinf(y):
            return math.copysign(1e300, y)
        return y - target

    a, fa, b, fb = _expand_bracket(phi, target, seed)
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
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * rel_tol * abs(b)
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

