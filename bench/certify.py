"""Correctness certificates written independently of the library's solvers.

Every formula here is restated from the model, not imported: production
families (``f``, ``f'``, ``h = f/f'`` and the closed-form inverse of ``h``),
the power cost's marginal ``C'``, the structured fixed points and the
first-order (KKT) conditions of the general game.  A certificate returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative residual allowed on a structured fixed point computed from full
# precision totals.  The solvers stop at a relative bracket width of 1e-10.
STRUCTURED_TOL = 1e-8
# Relative residual allowed when the totals were rounded to 6 significant
# figures (markdown and CSV reports).
ROUNDED_TOL = 1e-4
# Relative interior KKT residual allowed on an iterative solution.
KKT_TOL = 1e-6


@dataclass(frozen=True)
class Family:
    """One production function, restated from its definition."""

    name: str  # "power" | "ratio" | "cara" | "piecewise"
    params: tuple[float, ...]  # power (A, r); ratio (c,); cara (alpha,); piecewise (A, r, s)

    def f(self, x: float) -> float:
        p = self.params
        if self.name == "power":
            return p[0] * x ** p[1]
        if self.name == "ratio":
            return x / (x + p[0])
        if self.name == "cara":
            return -math.expm1(-p[0] * x)
        A, r, s = p
        if x <= s:
            return A * x**r
        return self._slope() * x + self._intercept()

    def f_prime(self, x: float) -> float:
        p = self.params
        if self.name == "ratio":
            return p[0] / (x + p[0]) ** 2
        if self.name == "cara":
            return p[0] * math.exp(-p[0] * x)
        if self.name == "piecewise" and x > p[2]:
            return self._slope()
        A, r = p[0], p[1]
        if x == 0.0:
            return A if r == 1.0 else math.inf
        return A * r * x ** (r - 1.0)

    def h(self, x: float) -> float:
        p = self.params
        if self.name == "power":
            return x / p[1]
        if self.name == "ratio":
            return x * (x + p[0]) / p[0]
        if self.name == "cara":
            return math.expm1(p[0] * x) / p[0]
        _, r, s = p
        return x / r if x <= s else x + self._intercept() / self._slope()

    def h_inv(self, y: float) -> float:
        p = self.params
        if self.name == "power":
            return p[1] * y
        if self.name == "ratio":
            c = p[0]
            return 2.0 * c * y / (c + math.sqrt(c * c + 4.0 * c * y))
        if self.name == "cara":
            return math.log1p(p[0] * y) / p[0]
        _, r, s = p
        return r * y if y <= s / r else y - self._intercept() / self._slope()

    def _slope(self) -> float:
        A, r, s = self.params
        return A * r * s ** (r - 1.0)

    def _intercept(self) -> float:
        A, r, s = self.params
        return A * s**r * (1.0 - r)

    @property
    def h_shape(self) -> str:
        """Curvature of h, which fixes the DE/UE ordering."""
        if self.name == "power" or (self.name == "piecewise" and self.params[1] == 1.0):
            return "linear"
        return "concave" if self.name == "piecewise" else "convex"


def marginal_cost(kappa: float, p: float, total: float) -> float:
    """C'(X) of the power cost C(X) = kappa X^p / p."""
    return kappa * total ** (p - 1.0)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def structured_problems(
    degrees: dict[int, int],
    prizes: dict[int, float],
    families: dict[int, Family],
    cost: tuple[float, float],
    x_de: float,
    x_ue: float,
    tol: float = STRUCTURED_TOL,
    neutrality_tol: float | None = None,
) -> list[str]:
    """Check semi-symmetric DE and UE totals against their fixed points.

    DE: ``X = sum_k d_k h_k^{-1}(v_k (k-1)/k^2 / C'(X))``.
    UE: with ``x = X/D``, ``sum_k d_k v_k (k-1)/k^2 / h_k(x) = D C'(X)``.
    With ``neutrality_tol`` set and one shared family, the DE/UE ordering its
    h-curvature predicts is checked too.
    """
    problems = []
    if not (x_de > 0 and x_ue > 0 and math.isfinite(x_de) and math.isfinite(x_ue)):
        return [f"totals not positive and finite: X_de={x_de!r} X_ue={x_ue!r}"]
    kappa, p = cost
    weight = {k: prizes[k] * (k - 1) / k**2 for k in degrees}

    lam = marginal_cost(kappa, p, x_de)
    implied = sum(d * families[k].h_inv(weight[k] / lam) for k, d in degrees.items())
    if _rel(implied, x_de) > tol:
        problems.append(f"DE fixed point off: X_de={x_de!r}, implied {implied!r}")

    D = sum(degrees.values())
    x = x_ue / D
    benefit = sum(d * weight[k] / families[k].h(x) for k, d in degrees.items())
    cost_side = D * marginal_cost(kappa, p, x_ue)
    if _rel(benefit, cost_side) > tol:
        problems.append(
            f"UE first-order condition off: benefit {benefit!r} vs cost {cost_side!r}"
        )

    if neutrality_tol is not None and len(set(families.values())) == 1:
        gap = (x_de - x_ue) / x_ue
        shape = next(iter(families.values())).h_shape
        if shape == "linear" and abs(gap) > neutrality_tol:
            problems.append(f"linear h but DE/UE gap {gap!r}")
        if shape == "convex" and gap > neutrality_tol:
            problems.append(f"convex h but X_de {x_de!r} > X_ue {x_ue!r}")
        if shape == "concave" and gap < -neutrality_tol:
            problems.append(f"concave h but X_de {x_de!r} < X_ue {x_ue!r}")
    return problems


@dataclass(frozen=True)
class GameSpec:
    """A general network restated for the KKT check: battles and power cost."""

    players: tuple[int, ...]
    battles: tuple[tuple[str, tuple[int, ...], float, Family], ...]  # id, members, prize, f
    cost: tuple[float, float]  # kappa, p


def kkt_problems(
    game: GameSpec, efforts: dict[tuple[int, str], float], uniform: bool
) -> list[str]:
    """First-order conditions of every player at a profile.

    Discriminatory: each slot's marginal benefit ``v f'(x) S / (f(x)+S)^2``
    (``S`` the rivals' score sum) equals ``C'(total)`` at an interior slot and
    does not exceed it at a zero slot.  Uniform: the sum over the player's
    battles of those marginal benefits equals ``D C'(D x)``, or does not
    exceed it at ``x = 0``.
    """
    kappa, p = game.cost
    benefit: dict[tuple[int, str], float] = {}
    totals = {i: 0.0 for i in game.players}
    for bid, members, prize, fam in game.battles:
        scores = {i: fam.f(efforts[(i, bid)]) for i in members}
        for i in members:
            x = efforts[(i, bid)]
            totals[i] += x
            rivals = sum(scores[j] for j in members if j != i)
            if rivals <= 0.0:
                benefit[(i, bid)] = math.nan
                continue
            benefit[(i, bid)] = prize * fam.f_prime(x) * rivals / (scores[i] + rivals) ** 2

    problems = []
    if uniform:
        for i in game.players:
            slots = [key for key in benefit if key[0] == i]
            x = efforts[slots[0]]
            mb = sum(benefit[key] for key in slots)
            mc = len(slots) * marginal_cost(kappa, p, totals[i])
            problems += _slot_problems(f"player {i}", x, mb, mc)
    else:
        for (i, bid), mb in benefit.items():
            mc = marginal_cost(kappa, p, totals[i])
            problems += _slot_problems(f"slot ({i}, {bid})", efforts[(i, bid)], mb, mc)
    return problems


def _slot_problems(label: str, x: float, mb: float, mc: float) -> list[str]:
    if math.isnan(mb):
        return [f"{label}: all rivals at zero effort"]
    if x > 0.0:
        if _rel(mb, mc) > KKT_TOL:
            return [f"{label}: interior x={x!r} but benefit {mb!r} != cost {mc!r}"]
    elif mb > mc * (1.0 + KKT_TOL):
        return [f"{label}: corner but benefit {mb!r} > cost {mc!r}"]
    return []
