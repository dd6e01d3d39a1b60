"""Monotone scalar root finding on the positive axis.

The solvers in this package reduce every equilibrium computation to roots of
strictly monotone scalar functions, all solved by one bracketed method
(`brent_increasing`): doubling or halving from a positive seed across the
float range, then Brent's method (Brent 1973) with a purely relative stopping
rule, whose bisection fallback needs nothing beyond monotonicity and
therefore tolerates kinks in piecewise production functions.  Both stages
evaluate through one function, and Brent starts from the values the
bracket search found at the bracket's ends, so no point is evaluated twice.
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


def _expand_bracket(phi, target, seed):
    """Find a < b with phi(a) <= 0 <= phi(b) by doubling or halving.

    Returns ``(a, phi(a), b, phi(b))``; a seed where phi is exactly 0 comes
    back as both ends.  Expansion runs from the seed until the next point
    would leave the float range (0 or +inf); ``phi`` is never evaluated at
    either end.
    """
    a = b = seed
    fa = fb = phi(seed)
    step = 2.0 if fa < 0.0 else 0.5
    while fb != 0.0 and (fb < 0.0) == (fa < 0.0):
        a, fa = b, fb
        b *= step
        if b == math.inf:
            raise BracketFailure(
                f"no upper bracket for target {target!r}: g < target up to {a!r}"
            )
        if b == 0.0:
            raise BracketFailure(
                f"no lower bracket for target {target!r}: g > target down to {a!r}"
            )
        fb = phi(b)
    return (a, fa, b, fb) if a <= b else (b, fb, a, fa)


def brent_increasing(
    g: Callable[[float], float],
    target: float,
    rel_tol: float = REL_TOL,
    seed: float | None = None,
) -> float:
    """Solve ``g(x) = target`` for strictly increasing ``g`` on ``(0, inf)``.

    The caller is responsible for the range of ``g`` covering the target.
    Deterministic for a fixed tolerance: bracket by doubling or halving
    from the seed (1.0 unless given) through the whole positive float range,
    then take inverse quadratic and secant steps, falling back to bisection
    whenever they stall (infinite values force bisection), until the bracket
    half-width drops to ``0.5 * rel_tol * |x|`` or to float spacing: the same
    relative accuracy at every scale.  An overflow of ``g`` to +inf counts as
    being above the target: the functions solved here grow without bound, so
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
        y = g(x)
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

