"""Monotone scalar root finding on the positive axis.

The solvers in this package reduce every equilibrium computation to roots of
strictly monotone scalar functions, all solved by one bracketed method
(`brent_increasing`): a galloping bracket search from a positive seed
across the float range, then Brent's method (Brent 1973) with a purely
relative stopping rule, whose bisection fallback needs nothing beyond
monotonicity and therefore tolerates kinks in piecewise production
functions.  Both stages are one loop in that one function, which evaluates
and guards one point per pass, and Brent starts from the values the bracket
search found at the bracket's ends, so no point is evaluated twice.
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


def brent_increasing(
    g: Callable[[float], float],
    target: float,
    rel_tol: float = REL_TOL,
    seed: float | None = None,
) -> float:
    """Solve ``g(x) = target`` for strictly increasing ``g`` on ``(0, inf)``.

    The caller is responsible for the range of ``g`` covering the target.
    Deterministic for a fixed tolerance: bracket by a galloping search from
    the seed (1.0 unless given) through the whole positive float range,
    bisect that bracket geometrically down to a factor of 2, then take
    inverse quadratic and secant steps, falling back to bisection
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

    inf = math.inf
    # Brent's floor of two machine epsilons keeps a tolerance finer than
    # float spacing from stalling the bracket one ulp wide.
    floor_tol = 2.0 * sys.float_info.epsilon
    half_tol = 0.5 * rel_tol
    limit = MAX_ITERATIONS
    # Each pass evaluates g at x once, then picks the next x by stage: the
    # gallop (0) from the seed, the geometric bisection (1) of its bracket
    # [a, b], and Brent's steps (2), which count against the limit.
    stage, rising, steps = 0, None, 0
    x = seed
    while True:
        try:
            y = g(x)
        except OverflowError:
            # Above the seed, where g was finite, g overflowed by growing
            # past the target; at or below it the overflow is the caller's.
            if x <= seed:
                raise
            y = inf
        if -inf < y < inf:
            fx = y - target
            if fx == 0.0:
                return x
        elif y > 0.0:
            fx = 1e300
        elif y < 0.0:
            fx = -1e300
        else:
            raise NonFiniteEvaluation(f"function returned NaN at x={x!r}")

        if stage == 2:
            a, fa, b, fb = b, fb, x, fx
            if (fb > 0.0) == (fc > 0.0):
                c, fc = a, fa
                d = e = b - a
        elif stage == 0:
            # Step by a factor of 2, then square the factor at every step
            # (4, 16, 256, ...), ending at the largest or smallest positive
            # float, so a root 1e300 away takes about 10 steps, not 1000.
            if rising is None:
                rising = fx < 0.0
                factor, end = (2.0, _LARGEST) if rising else (0.5, _SMALLEST)
            if (fx < 0.0) == rising:
                if x == end:
                    raise BracketFailure(
                        f"no upper bracket for target {target!r}: g < target up to {x!r}"
                        if rising
                        else f"no lower bracket for target {target!r}: g > target down to {x!r}"
                    )
                a, fa = x, fx
                x *= factor
                if not _SMALLEST <= x <= _LARGEST:
                    x = end
                factor *= factor
                continue
            a, fa, b, fb = (a, fa, x, fx) if a < x else (x, fx, a, fa)
            stage = 1
        elif fx < 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx

        if stage == 1:
            # Bisect geometrically down to a factor of 2, then start Brent
            # from the values at the bracket's ends.
            if b / 2.0 > a:
                x = math.sqrt(a) * math.sqrt(b)
                continue
            c, fc = a, fa
            d = e = b - a
            stage = 2

        if steps == limit:
            raise NoConvergence(
                f"bracket [{min(b, c)!r}, {max(b, c)!r}] for target {target!r} still "
                f"open after {limit} iterations"
            )
        steps += 1
        # fb and fc have opposite signs, so |fc| < |fb| is a sign test.
        if (fc < -fb) if fb < 0.0 else (-fc < fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # b > 0, so b is |b|.
        tol = floor_tol * b + half_tol * b
        m = 0.5 * (c - b)
        if -tol <= m <= tol:
            return b
        if -tol < e < tol or abs(fa) <= abs(fb):
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
        if -tol <= d <= tol:
            x = b + tol if m > 0.0 else b - tol
        else:
            x = b + d
