"""Equilibrium solvers for semi-symmetric conflict networks.

Each regime reduces to one strictly increasing scalar condition, solved by a
single call of the bracketed Brent solver; no root find is nested inside
another.  Under discriminatory effort (DE), for a candidate per-player total
mu each size class k has the battle effort ``x_k = h_k^{-1}(v_k (k-1) / (k^2
C'(mu)))``, taken from the production family's closed-form inverse, and mu
must equal ``sum_k d_k x_k``.  Under uniform effort (UE) the single effort x
solves ``D C'(D x) = sum_k w_k / h_k(x)`` with ``D`` battles per player and
``w_k = d_k v_k (k-1) / k^2``.  At either equilibrium every participant of a
size-k battle wins with probability exactly 1/k, which the payoff computation
uses directly instead of re-evaluating the contest success function.  Each
condition is solved in one place, :func:`_de_efforts` or :func:`_ue_effort`,
by one root search from a start its caller hands in, keeping no state.  Both
work from the ``(d_b, f_b, t_b)`` terms of :func:`_terms`, the DE root with
``h_b^{-1}`` for ``f_b`` (:func:`_h_inverses`).  The structured solvers, the
iterative engine's start on one player's battles and prize grids start
them at :func:`_closed_form_start`, exact for power families; grids call
:func:`_solve_totals`, which takes a point's ``(k, d_k, f_k)`` per size and
prizes, shares one start between the two regimes and returns their totals
alone, so a grid point builds no structure.  The iterative DE best response
is the same DE root over per-battle maps: one consistency gap for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketFailure, PreconditionViolation
from .functions import PowerProduction, _scaled_power
from .network import SemiSymmetricStructure
from .rootfind import _LARGEST, _SMALLEST, REL_TOL, brent_increasing

__all__ = [
    "DEResult", "UEResult", "solve_de", "solve_ue", "reverse_valuations",
    "tullock_closed_form_total",
]


@dataclass(frozen=True)
class DEResult:
    """Discriminatory-effort equilibrium of a semi-symmetric structure.

    ``efforts[k]`` is the effort each player exerts in every size-k battle;
    ``total`` is the per-player total effort (also the fixed-point scalar),
    ``marginal_cost`` its C', and ``payoff`` the common per-player payoff.
    ``residuals[k]`` is the absolute first-order-condition residual of size k.
    """

    efforts: dict[int, float]
    marginal_cost: float
    total: float
    payoff: float
    residuals: dict[int, float]


@dataclass(frozen=True)
class UEResult:
    """Uniform-effort equilibrium of a semi-symmetric structure.

    ``effort`` is the one effort level a player puts into each of its ``D``
    battles and ``total = D * effort``.  ``marginal_cost`` is
    ``D C'(D effort)``, the marginal cost of raising that level, not
    ``DEResult.marginal_cost``'s ``C'(total)``: at the same total the two
    differ by the factor ``D``.  ``residual`` is the absolute gap between
    the aggregated marginal benefit and ``marginal_cost``.
    """

    effort: float
    marginal_cost: float
    total: float
    payoff: float
    residual: float


def _terms(sizes, prizes):
    """``(d_k, f_k, t_k)`` per ``(k, d_k, f_k)`` of ``sizes`` at the prize
    ``v_k`` in the same place of ``prizes``: degree, production and the
    target ``t_k = v_k (k-1)/k^2``, the prize times the size-k
    marginal-benefit weight at symmetry."""
    return tuple((d, pf, v * ((k - 1) / k**2)) for (k, d, pf), v in zip(sizes, prizes))


def _tullock_total(weight: float, cost) -> float:
    """The Tullock closed form: X with ``kappa X^p = X C'(X) = weight``."""
    q = 1.0 / cost.p
    return _scaled_power(1.0 / cost.kappa**q, weight, q)


def _closed_form_start(terms, cost) -> float:
    """Start total of a symmetric root search over ``(d_b, f_b, t_b)`` terms.

    With power production both regimes' totals are ``_tullock_total(sum_b
    d_b r_b t_b)``.  As ``h(x) >= x`` for concave f with f(0) = 0, every
    family's totals are at most ``X_T = _tullock_total(sum_b d_b t_b)``, and
    the DE total is at least ``sum_b d_b h_b^{-1}(x_b)`` at the Tullock
    efforts ``x_b = t_b / C'(X_T)``.  The start takes each r_b as f_b's
    elasticity ``x_b / h_b(x_b)`` there (0 where ``h_b(x_b)`` leaves the
    float range) and clips the total to those bounds.  :func:`_de_efforts`
    seeds at this total and :func:`_ue_effort` at its share per battle.
    """
    total = 0.0
    for d, _, t in terms:
        total += d * t
    bound = min(max(_tullock_total(total, cost), _SMALLEST), _LARGEST)
    lam = total / bound  # C'(X_T), since X_T C'(X_T) = total
    weight = lower = 0.0
    for d, pf, t in terms:
        x = t / lam if lam > 0.0 else 0.0
        hx = pf.h(x)
        weight += d * t * (x / hx if 0.0 < hx < math.inf else 0.0)
        lower += d * pf.h_inv(x)
    start = min(max(_tullock_total(weight, cost), lower), bound)
    return max(start, _SMALLEST)


def _de_efforts(terms, cost, rel_tol: float, start: float, offset: float = 0.0) -> list[float]:
    """Each term's effort at the discriminatory-effort root.

    ``terms`` holds ``(d_b, inverse_b, t_b)`` per battle or size class, with
    effort ``x_b = inverse_b(t_b / lam)`` at marginal cost lam.  The gap
    ``mu - offset - sum_b d_b x_b(C'(mu))``, ``offset`` being effort outside
    the terms, is strictly increasing in mu and crosses zero exactly once;
    one Brent root from ``start`` gives mu.  Where ``C'(mu)`` underflows to
    0 every effort is beyond float range and the gap is ``-inf``.
    """
    c_prime = cost.c_prime

    def gap(mu: float) -> float:
        lam = c_prime(mu)
        if lam == 0.0:
            return -math.inf
        acc = offset
        for d, inverse, t in terms:
            acc += d * inverse(t / lam)
        return mu - acc

    mu = brent_increasing(gap, 0.0, rel_tol, start)
    lam = c_prime(mu)
    return [inverse(t / lam) for _, inverse, t in terms]


def _h_inverses(terms):
    """:func:`_de_efforts`'s ``(d_k, h_k^{-1}, t_k)`` of ``(d_k, f_k, t_k)`` terms."""
    return [(d, pf.h_inv, t) for d, pf, t in terms]


def _ue_effort(terms, count: int, cost, rel_tol: float, start: float) -> float:
    """The uniform effort x spent on each of ``count`` battles.

    It is the one root of the strictly increasing first-order gap ``n C'(n
    x) - sum_b w_b / h_b(x)`` over :func:`_terms`' terms, with ``w_b =
    d_b t_b`` and ``n = count``, searched from the closed-form start total
    ``start`` spread over the ``n`` battles.  Where some ``h_b(x)``
    underflows to 0 the marginal benefit is beyond float range and the gap
    is ``-inf``; where the total ``n x`` overflows the gap is ``+inf``, and
    a root at that edge is an equilibrium past the float range.

    Raises:
        BracketFailure: the total at the root leaves the float range.
    """
    c_prime = cost.c_prime
    weighted_h = tuple((d * t, pf.h) for d, pf, t in terms)

    def gap(x: float) -> float:
        total = count * x
        if total == math.inf:
            return math.inf
        benefit = 0.0
        for w, h in weighted_h:
            hx = h(x)
            if hx == 0.0:
                return -math.inf
            benefit += w / hx
        return count * c_prime(total) - benefit

    x = brent_increasing(gap, 0.0, rel_tol, max(start / count, _SMALLEST))
    # Brent stops with the root's bracket about rel_tol * x wide, so a root
    # at the jump to +inf has its total overflow within twice that.
    if count * x * (1.0 + 2.0 * rel_tol) == math.inf:
        raise BracketFailure(
            f"no upper bracket for target 0.0: g < target up to a total of {_LARGEST!r}"
        )
    return x


def _solve_totals(sizes, prizes, count: int, cost) -> tuple[float, float]:
    """The DE and UE totals, as :func:`solve_de` and :func:`solve_ue` report
    them, of the ``(k, d_k, f_k)`` per size in ``sizes`` at ``prizes`` in
    the same order, with ``count`` battles per player and ``cost``, from one
    closed-form start; no structure, residual, payoff or result is built."""
    terms = _terms(sizes, prizes)
    start = _closed_form_start(terms, cost)
    efforts = _de_efforts(_h_inverses(terms), cost, REL_TOL, start)
    de_total = sum(d * x for (d, _, _), x in zip(terms, efforts))
    return de_total, count * _ue_effort(terms, count, cost, REL_TOL, start)


def _benefit(pf, x: float, t: float) -> float:
    """Marginal benefit ``t f'(x) / f(x)`` at effort ``x > 0``, taken as
    ``t / h(x)`` where ``f'(x)`` underflows to 0 though ``f'(x) / f(x) = 1 /
    h(x)`` need not: a piecewise family's affine branch with a tiny slope."""
    slope = pf.f_prime(x)
    if slope == 0.0:
        return t / pf.h(x)
    return t * slope / pf.f(x)


def solve_de(ss: SemiSymmetricStructure) -> DEResult:
    """Solve the discriminatory-effort equilibrium.

    Construction: for a candidate total mu, each size-k effort is
    ``h_k^{-1}(v_k (k-1) / (k^2 C'(mu)))`` in closed form; the consistency gap
    ``mu - sum_k d_k x_k(mu)`` is strictly increasing in mu and crosses zero
    exactly once, so one Brent root at the root finder's ``REL_TOL`` gives
    mu (see :func:`_de_efforts`).
    """
    terms = _terms(ss.size_classes, [ss.prizes[k] for k in ss.sizes])
    start = _closed_form_start(terms, ss.cost)
    efforts = dict(zip(ss.sizes, _de_efforts(_h_inverses(terms), ss.cost, REL_TOL, start)))
    # Re-anchor the reported total on the final efforts so the accounting
    # identity total = sum_k d_k x_k holds to float precision.
    total = sum(ss.degrees[k] * efforts[k] for k in ss.sizes)
    lam = ss.cost.c_prime(total)
    # An effort of 0 is the corner left by a target below float range; its
    # first-order condition holds as an inequality, and f'(0)/f(0) is 1/0.
    residuals = {
        k: 0.0 if efforts[k] == 0.0 else abs(_benefit(pf, efforts[k], t) - lam)
        for k, (_, pf, t) in zip(ss.sizes, terms)
    }
    return DEResult(
        efforts=efforts,
        marginal_cost=lam,
        total=total,
        payoff=ss.prize_term - ss.cost.c(total),
        residuals=residuals,
    )


def solve_ue(ss: SemiSymmetricStructure) -> UEResult:
    """Solve the uniform-effort equilibrium.

    With a single effort level x in all battles, the first-order condition
    aggregates the marginal benefits of all battle sizes:
    ``sum_k w_k f_k'(x)/f_k(x) = D C'(D x)`` with ``w_k = d_k v_k (k-1)/k^2``
    and ``D`` the number of battles per player.  Since ``f_k'/f_k = 1/h_k``
    and every ``h_k`` is strictly increasing, ``D C'(D x) - sum_k w_k / h_k(x)``
    is strictly increasing in x, so one Brent root, to the root finder's
    ``REL_TOL``, gives the effort, whether or not the production functions
    differ across sizes.  The search starts from the closed-form start spread
    over the ``D`` battles, as in :func:`solve_de`.
    """
    terms = _terms(ss.size_classes, [ss.prizes[k] for k in ss.sizes])
    D = ss.total_degree
    effort = _ue_effort(terms, D, ss.cost, REL_TOL, _closed_form_start(terms, ss.cost))
    total = D * effort
    lam = ss.cost.c_prime(total) * D
    benefit = sum(_benefit(pf, effort, d * t) for d, pf, t in terms)
    return UEResult(
        effort=effort,
        marginal_cost=lam,
        total=total,
        payoff=ss.prize_term - ss.cost.c(total),
        residual=abs(benefit - lam),
    )


def reverse_valuations(
    structure: SemiSymmetricStructure,
    targets: dict[int, float],
) -> dict[int, float]:
    """Prizes that make a given interior semi-symmetric profile the equilibrium.

    For target efforts ``x_k > 0`` the discriminatory first-order conditions
    pin down the prizes uniquely:

        v_k = k^2/(k-1) * h_k(x_k) * C'(sum_l d_l x_l)

    The prizes already attached to ``structure`` are ignored.

    Args:
        structure: sizes, degrees, production functions, and cost to use.
        targets: strictly positive per-size efforts keyed by battle size.

    Returns:
        Per-size prizes, all strictly positive.
    """
    missing = [k for k in structure.sizes if k not in targets]
    if missing:
        raise ValueError(f"missing target efforts for sizes {missing}")
    for k, x in targets.items():
        if not 0 < x < math.inf:
            raise ValueError(
                f"target effort for size {k} must be positive and finite, got {x}"
            )
    total = sum(structure.degrees[k] * targets[k] for k in structure.sizes)
    lam = structure.cost.c_prime(total)
    return {
        k: (k**2 / (k - 1)) * structure.productions[k].h(targets[k]) * lam
        for k in structure.sizes
    }


def tullock_closed_form_total(ss: SemiSymmetricStructure) -> float:
    """Per-player total effort in closed form for power families.

    With ``f_k(x) = A_k x^{r_k}`` and cost ``C(X) = kappa X^p / p`` the DE
    and UE totals coincide at the X with ``kappa X^p = sum_k d_k r_k v_k
    (k-1)/k^2``, computed as the structured solvers' start computes it.

    Raises:
        PreconditionViolation: a production function is not a power function.
    """
    for k, _, pf in ss.size_classes:
        if not isinstance(pf, PowerProduction):
            raise PreconditionViolation(
                f"closed form requires power production functions, size {k} has {pf.family!r}"
            )
    terms = _terms(ss.size_classes, [ss.prizes[k] for k in ss.sizes])
    return _tullock_total(sum(d * pf.r * t for d, pf, t in terms), ss.cost)
