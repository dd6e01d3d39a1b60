"""Contest production functions and the effort cost.

Every production family ships an analytic first derivative, and derived
quantities such as the inverse semi-elasticity ``h = f / f'`` and its
inverse ``h_inv`` are implemented in closed form per family rather than as
generic quotients or root finds, since solver accuracy depends on an exact
``h``.  ``g_inv`` inverts a battle's first-order condition, in its share
form ``h(x) / (p (1 - p)) = v / lam``, without a bracketed search: in
closed form for ratio, cara, linear power and the affine piecewise branch,
and for power with ``r < 1`` by a monotone Newton iteration on the log of
the own-to-rival score ratio; none squares a score or forms ``v S``.
Each family also labels the curvature of its ``h`` analytically
(:meth:`ProductionFunction.h_curvature`), and that label is the regime
comparison's verdict: nothing samples ``h`` to check it.  All families
satisfy ``f(0) = 0``, ``f' > 0`` and ``f'`` nonincreasing (concavity) on the
positive axis, which makes ``h`` strictly increasing with ``h(0+) = 0`` and
``h -> +inf``; a user-written family is trusted to do the same.

A family's name and parameters live only in its frozen dataclass, as the
cost's do: the ``family`` class variable names it, and its fields, in
order, are the ``params`` of its spec and the positional values of a CLI
``--f`` flag.  One spec reader serves both; it checks names only (a field
with a default may be left out) and leaves every value to the class.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import ClassVar

from .errors import NoConvergence

__all__ = [
    "ProductionFunction",
    "PowerProduction",
    "RatioProduction",
    "CaraProduction",
    "PiecewisePowerAffineProduction",
    "PowerCost",
    "production_from_spec",
    "cost_from_spec",
]


# ---------------------------------------------------------------------------
# Production families
# ---------------------------------------------------------------------------

class ProductionFunction(ABC):
    """Common interface of contest production functions.

    Scalar methods operate on plain floats; they are the hot path of every
    solver, so implementations stick to ``math`` rather than numpy.
    """

    family: ClassVar[str]

    @abstractmethod
    def f(self, x: float) -> float:
        """Production value at effort ``x >= 0``."""

    @abstractmethod
    def f_prime(self, x: float) -> float:
        """First derivative; may be ``inf`` at ``x = 0``."""

    @abstractmethod
    def h(self, x: float) -> float:
        """Inverse semi-elasticity ``f(x) / f'(x)`` in closed form."""

    @abstractmethod
    def h_inv(self, y: float) -> float:
        """Unique ``x > 0`` with ``h(x) = y`` for ``y > 0``, in closed form.

        ``y = 0`` gives the corner ``x = 0``; a negative ``y`` raises.
        """

    @abstractmethod
    def g_inv(self, rivals: float, u: float, excess: float) -> float:
        """Effort ``x`` with ``Phi(x) = u`` against a rivals' score sum
        ``S = rivals > 0``, where ``Phi(x) = h(x) / (p (1 - p)) = (f(x) +
        S)^2 / (S f'(x))`` and ``p = f(x) / (f(x) + S)`` is the share.

        ``Phi`` is the increasing form of a battle's first-order condition
        ``v p (1 - p) / h(x) = lam``, so ``u = v / lam``; at symmetry, ``p =
        1/k``, it is the structured engine's ``h(x) = t / lam``.  Callers
        pass only ``u`` above the corner ``Phi(0) = S / f'(0)``, with
        ``excess = u - Phi(0) > 0``, so that the corner is computed in one
        place (:func:`conflictnet.network.battle_condition`).  A root below
        the smallest float is the corner 0.
        """

    def h_curvature(self) -> str:
        """Analytic curvature of ``h``: 'convex', 'concave' or 'linear'."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        """JSON-serializable ``{"family", "params"}`` description.

        Built from the dataclass fields; a family that is not a dataclass
        overrides it.
        """
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"family": self.family, "params": params}


def _check_h_target(y: float) -> None:
    # Each h_inv tests its target inline and calls this only to raise.
    if not y >= 0:
        raise ValueError(f"h target must be non-negative, got {y!r}")


# Newton steps allowed in the power family's ``g_inv``; reaching it raises.
_G_NEWTON_STEPS = 100

# Newton on the log share stops once a step is this small relative to
# |y| + |C|, the scale of the rounding in F.
_G_NEWTON_TOL = 4.0 * sys.float_info.epsilon


def _power_g_inv(A: float, r: float, rivals: float, u: float, excess: float) -> float:
    """``g_inv`` of ``f(x) = A x**r``, shared by the power and piecewise families."""
    if r == 1.0:
        # (A x + S)^2 = A S u, rationalised against the corner S / A.
        return excess / (1.0 + math.sqrt(A) * math.sqrt(u) / math.sqrt(rivals))
    # In the log share y = log(A x^r / S), Phi = u reads
    # F(y) = 2 softplus(y) + k y - C = 0 with k = (1 - r) / r and
    # C = log(u A r / S) + k log(A / S).  F is increasing and convex, and
    # F(C / (k + 2)) = 2 log1p(exp(-C / (k + 2))) > 0, so Newton's method
    # from there falls monotonically to the root; a step that is not
    # clearly positive is rounding.  Nothing is squared or exponentiated
    # upwards, and a root below the smallest float underflows to 0.
    k = (1.0 - r) / r
    log_s = math.log(rivals)
    log_a = math.log(A)
    # Where F' is near k (r near 1, a small share) the root moves by 1/k
    # times any error in C, so its large first term is one log, not a sum of
    # logs that cancel.  u A r / S = (1 + f / S)^2 x^(1 - r) leaves the
    # normal floats only where f / S is huge or r is below 0.05; F' is then
    # far from 0 and the sum of logs will do.
    q = u / rivals * (A * r)
    if sys.float_info.min <= q < math.inf:
        c = math.log(q)
    else:
        c = math.log(u) - log_s + log_a + math.log(r)
    c += k * (log_a - log_s)
    y = c / (k + 2.0)
    for _ in range(_G_NEWTON_STEPS):
        e = math.exp(-abs(y))
        if y >= 0.0:
            softplus, sigma = y + math.log1p(e), 1.0 / (1.0 + e)
        else:
            softplus, sigma = math.log1p(e), e / (1.0 + e)
        step = (2.0 * softplus + k * y - c) / (2.0 * sigma + k)
        y -= step
        if step <= _G_NEWTON_TOL * (abs(y) + abs(c)):
            return math.exp((log_s + y - log_a) / r)
    raise NoConvergence(
        f"power g_inv: {_G_NEWTON_STEPS} Newton steps left target {u!r} "
        f"against rivals {rivals!r} unsolved"
    )


def _power_slope(A: float, r: float, x: float) -> float:
    """``A r x**(r - 1)`` at ``x > 0``; where ``x**(r - 1)`` alone overflows,
    at a subnormal ``x`` with ``r`` near 0, ``A r / x**(1 - r)``."""
    try:
        return A * r * x ** (r - 1.0)
    except OverflowError:
        return A * r / x ** (1.0 - r)


@dataclass(frozen=True)
class PowerProduction(ProductionFunction):
    """Tullock family ``f(x) = A * x**r`` with ``A > 0`` and ``r in (0, 1]``.

    The inverse semi-elasticity is exactly linear, ``h(x) = x / r``,
    independent of the scale ``A``.
    """

    A: float
    r: float
    family: ClassVar[str] = "power"

    def __post_init__(self):
        if not 0 < self.A < math.inf:
            raise ValueError(f"scale A must be positive and finite, got {self.A}")
        if not 0 < self.r <= 1:
            raise ValueError(f"exponent r must lie in (0, 1], got {self.r}")

    def f(self, x):
        return self.A * x**self.r

    def f_prime(self, x):
        if x == 0.0:
            return self.A if self.r == 1.0 else math.inf
        return _power_slope(self.A, self.r, x)

    def h(self, x):
        return x / self.r

    def h_inv(self, y):
        if not y >= 0.0:
            _check_h_target(y)
        return self.r * y

    def g_inv(self, rivals, u, excess):
        return _power_g_inv(self.A, self.r, rivals, u, excess)

    def h_curvature(self):
        return "linear"


@dataclass(frozen=True)
class RatioProduction(ProductionFunction):
    """Saturating family ``f(x) = x / (x + c)`` with shift ``c > 0``.

    ``h(x) = x (x + c) / c`` is strictly convex.
    """

    c: float
    family: ClassVar[str] = "ratio"

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"shift c must be positive and finite, got {self.c}")

    def f(self, x):
        return x / (x + self.c)

    # Dividing by x + c twice, not by its square: the square overflows past
    # x of about 1e154 and underflows to 0 below about 1e-162.
    def f_prime(self, x):
        return self.c / (x + self.c) / (x + self.c)

    def h(self, x):
        # x * (x + c) / c would overflow in the product for c > 1.
        return x * (x / self.c + 1.0)

    def h_inv(self, y):
        # Positive root of x^2 + c x - c y = 0, written so that nothing
        # cancels; y / c underflowing to 0 leaves x = y, exact to first order.
        if not y >= 0.0:
            _check_h_target(y)
        t = y / self.c
        if t < math.inf:
            return y / (0.5 + math.sqrt(0.25 + t))
        # Only a tiny c overflows y / c; the root is then sqrt(c y) to
        # float precision.
        return math.sqrt(y) * math.sqrt(self.c)

    def g_inv(self, rivals, u, excess):
        # Phi(x) = ((1 + S) x + S c)^2 / (c S) is a perfect square, so
        # x = (sqrt(c S u) - S c) / (1 + S), rationalised against the corner
        # S c.  The two divisions stay apart: past S of 1e154 their product
        # overflows.
        root = math.sqrt(u) / (math.sqrt(self.c) * math.sqrt(rivals)) + 1.0
        return excess / (1.0 + rivals) / root

    def h_curvature(self):
        return "convex"


@dataclass(frozen=True)
class CaraProduction(ProductionFunction):
    """Bounded exponential family ``f(x) = 1 - exp(-alpha * x)``.

    ``h(x) = (exp(alpha x) - 1) / alpha`` is strictly convex.
    """

    alpha: float
    family: ClassVar[str] = "cara"

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"rate alpha must be positive and finite, got {self.alpha}")

    def f(self, x):
        return -math.expm1(-self.alpha * x)

    def f_prime(self, x):
        return self.alpha * math.exp(-self.alpha * x)

    def h(self, x):
        # expm1 keeps h accurate near zero.  Past exp's range h is still
        # finite for alpha > 1, as exp(alpha x - log alpha); beyond that it
        # is inf, which bracketing code treats as "above any finite target".
        try:
            return math.expm1(self.alpha * x) / self.alpha
        except OverflowError:
            pass
        try:
            return math.exp(self.alpha * x - math.log(self.alpha))
        except OverflowError:
            return math.inf

    def h_inv(self, y):
        if not y >= 0.0:
            _check_h_target(y)
        z = self.alpha * y
        if z < sys.float_info.min:
            # alpha y is subnormal only where log1p(alpha y) / alpha = y to
            # float precision.
            return y
        if z < math.inf:
            return math.log1p(z) / self.alpha
        return (math.log(self.alpha) + math.log(y)) / self.alpha

    def g_inv(self, rivals, u, excess):
        # With w = exp(alpha x), Phi = u reads ((1 + S) w - 1)^2 = alpha S u w,
        # and the effort is its larger root.  Put sqrt(w) = 1 + d,
        # p = sqrt(alpha S u) and B = 1 + S: then B d^2 + (2B - p) d = p - S,
        # whose discriminant (2B - p)^2 + 4B (p - S) = p^2 + 4B hypot takes
        # without overflow.  Each side of p = 2B uses the root formula that
        # adds terms of one sign, and p - S = alpha (u - S / alpha) / (p / S + 1)
        # is rationalised against the corner.
        b = 1.0 + rivals
        ratio = math.sqrt(self.alpha) * math.sqrt(u) / math.sqrt(rivals)
        p = ratio * rivals
        disc = math.hypot(p, 2.0 * math.sqrt(b))
        if p <= 2.0 * b:
            d = 2.0 * self.alpha * (excess / (ratio + 1.0)) / (2.0 * b - p + disc)
        else:
            d = (p - 2.0 * b + disc) / (2.0 * b)
            if d == math.inf:
                # Past the float range d is p / B to float precision.
                return (
                    math.log(self.alpha) + math.log(u) + math.log(rivals) - 2.0 * math.log(b)
                ) / self.alpha
        return 2.0 * math.log1p(d) / self.alpha

    def h_curvature(self):
        return "convex"


@dataclass(frozen=True)
class PiecewisePowerAffineProduction(ProductionFunction):
    """Power branch glued to an affine branch, C1 at the breakpoint.

    ``f(x) = A x**r`` for ``x <= s`` and ``f(x) = a x + b`` for ``x > s``,
    where ``a = A r s**(r-1)`` and ``b = A s**r (1 - r)`` are derived from the
    value and slope matching conditions at ``s``.  The function is concave and
    C1 but not C2 at ``s``; ``h`` is continuous, piecewise linear with slopes
    ``1/r`` then ``1``, hence concave (linear when ``r = 1``).
    """

    A: float
    r: float
    s: float
    family: ClassVar[str] = "piecewise_power_affine"

    def __post_init__(self):
        if not 0 < self.A < math.inf:
            raise ValueError(f"scale A must be positive and finite, got {self.A}")
        if not 0 < self.r <= 1:
            raise ValueError(f"exponent r must lie in (0, 1], got {self.r}")
        if not 0 < self.s < math.inf:
            raise ValueError(f"breakpoint s must be positive and finite, got {self.s}")

    # The affine branch's constants are computed once per instance, on first
    # use: cached in the instance's __dict__, they are not fields, so
    # equality, hashing and the spec see A, r and s only.
    @cached_property
    def slope(self) -> float:
        """Affine-branch slope ``a``."""
        return _power_slope(self.A, self.r, self.s)

    @cached_property
    def intercept(self) -> float:
        """Affine-branch intercept ``b`` (nonnegative since ``r <= 1``)."""
        return self.A * self.s**self.r * (1.0 - self.r)

    @cached_property
    def _h_kink(self) -> float:  # h(s), where h_inv changes branch
        return self.s / self.r

    @cached_property
    def _h_shift(self) -> float:  # h(x) - x = b / a = s (1 - r) / r on the affine branch
        return self.intercept / self.slope if self.slope else self.s * ((1.0 - self.r) / self.r)

    def f(self, x):
        if x <= self.s:
            return self.A * x**self.r
        if self.slope:
            return self.slope * x + self.intercept
        # The slope underflowed, though a x need not: A r x / s^(1 - r).
        return self.A * self.r * x / self.s ** (1.0 - self.r) + self.intercept

    def f_prime(self, x):
        if x > self.s:
            return self.slope
        if x == 0.0:
            return self.A if self.r == 1.0 else math.inf
        return _power_slope(self.A, self.r, x)

    def h(self, x):
        if x <= self.s:
            return x / self.r
        return x + self._h_shift

    def h_inv(self, y):
        if not y >= 0.0:
            _check_h_target(y)
        if y <= self._h_kink:
            return self.r * y
        return y - self._h_shift

    def g_inv(self, rivals, u, excess):
        # Past Phi(s) the affine branch solves (a x + b + S)^2 = a S u,
        # written as s plus its excess over the kink.
        A, r, s = self.A, self.r, self.s
        score = A * s**r + rivals
        a = self.slope
        # Phi(s) = score^2 / (S a).  Where a underflowed, Phi(s) is score^2
        # s^(1 - r) / (S A r), and the excess takes a as score^2 / (S Phi(s)).
        kink = score * (score / rivals)
        kink = kink / a if a else kink / A * (s ** (1.0 - r) / r)
        if u <= kink:
            return _power_g_inv(A, r, rivals, u, excess)
        if a:
            root = math.sqrt(a) * math.sqrt(u) / math.sqrt(rivals) + score / rivals
            return s + (u - kink) / root
        return s + math.sqrt(kink) * (math.sqrt(u) - math.sqrt(kink)) * (rivals / score)

    def h_curvature(self):
        return "linear" if self.r == 1.0 else "concave"


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

def _scaled_power(kappa: float, x: float, q: float) -> float:
    """``kappa * x**q`` for ``x >= 0``, also where ``x**q`` alone leaves the
    normal floats but the product does not.

    ``x**q`` raises past the float range and loses precision below it; only
    then is ``x`` scaled first, as ``(kappa**(1/q) * x)**q``, so every other
    value is the plain product.  A result past the float range is ``inf``,
    as the product's overflow would be.
    """
    try:
        y = x**q
    except OverflowError:
        y = math.inf
    if sys.float_info.min <= y < math.inf or x == 0.0:
        return kappa * y
    try:
        return (kappa ** (1.0 / q) * x) ** q
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PowerCost:
    """Convex, strictly increasing effort cost on total effort,
    ``C(X) = kappa * X**p / p`` with ``kappa > 0`` and ``p >= 1``.

    The default ``kappa = 1, p = 2`` is the quadratic cost ``X**2 / 2``.
    """

    kappa: float = 1.0
    p: float = 2.0
    family: ClassVar[str] = "power"

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"scale kappa must be positive and finite, got {self.kappa}")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"exponent p must be >= 1 and finite, got {self.p}")

    def c(self, total: float) -> float:
        """Cost of a total effort level."""
        return _scaled_power(self.kappa, total, self.p) / self.p

    def c_prime(self, total: float) -> float:
        """Marginal cost."""
        if self.p == 2.0:
            return self.kappa * total
        return _scaled_power(self.kappa, total, self.p - 1.0)

    to_spec = ProductionFunction.to_spec


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

_PRODUCTION_FAMILIES = {
    cls.family: cls
    for cls in (PowerProduction, RatioProduction, CaraProduction, PiecewisePowerAffineProduction)
}


def _from_spec(kind: str, families: dict, spec: dict):
    """The ``families[family]`` instance a ``{"family", "params"}`` mapping
    describes, its params read as floats; a field with a default may be left out."""
    family = spec.get("family")
    if family not in families:
        raise ValueError(f"unknown {kind} family {family!r}; expected one of {sorted(families)}")
    cls = families[family]
    params = spec.get("params", {})
    given, missing = {}, []
    for field in fields(cls):
        if field.name in params:
            given[field.name] = params[field.name]
        elif field.default is MISSING:
            missing.append(field.name)
    if missing:
        raise ValueError(f"{kind} family {family!r} missing params {missing}")
    extra = [n for n in params if n not in given]
    if extra:
        raise ValueError(f"{kind} family {family!r} got unknown params {extra}")
    return cls(**{n: float(v) for n, v in given.items()})


def production_from_spec(spec: dict) -> ProductionFunction:
    """Build a production function from a ``{"family", "params"}`` mapping."""
    return _from_spec("production", _PRODUCTION_FAMILIES, spec)


def cost_from_spec(spec: dict) -> PowerCost:
    """Build a cost function from a ``{"family", "params"}`` mapping."""
    return _from_spec("cost", {PowerCost.family: PowerCost}, spec)
