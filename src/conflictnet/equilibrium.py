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
uses directly instead of re-evaluating the contest success function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import SemiSymmetricStructure
from .rootfind import BracketingConfig, DEFAULT_CONFIG, brent_increasing

__all__ = ["DEResult", "UEResult", "solve_de", "solve_ue", "reverse_valuations"]


def _size_weight(k: int) -> float:
    """Marginal-benefit weight (k-1)/k^2 of a size-k battle at symmetry."""
    return (k - 1) / k**2


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
    """Uniform-effort equilibrium of a semi-symmetric structure."""

    effort: float
    marginal_cost: float
    total: float
    payoff: float
    residual: float


def _symmetric_payoff(ss: SemiSymmetricStructure, total: float) -> float:
    return ss.prize_term - ss.cost.c(total)


def solve_de(
    ss: SemiSymmetricStructure, cfg: BracketingConfig = DEFAULT_CONFIG
) -> DEResult:
    """Solve the discriminatory-effort equilibrium.

    Construction: for a candidate total mu, each size-k effort is
    ``h_k^{-1}(v_k (k-1) / (k^2 C'(mu)))`` in closed form; the consistency gap
    ``mu - sum_k d_k x_k(mu)`` is strictly increasing in mu and crosses zero
    exactly once, so it is bracketed from mu = 1 and solved by Brent's method.
    """
    targets = {k: ss.prizes[k] * _size_weight(k) for k in ss.sizes}

    def efforts_at(mu: float) -> dict[int, float]:
        lam = ss.cost.c_prime(mu)
        return {k: ss.productions[k].h_inv(targets[k] / lam) for k in ss.sizes}

    def gap(mu: float) -> float:
        xs = efforts_at(mu)
        return mu - sum(ss.degrees[k] * xs[k] for k in ss.sizes)

    mu_root = brent_increasing(gap, 0.0, cfg)
    efforts = efforts_at(mu_root)
    # Re-anchor the reported total on the final efforts so the accounting
    # identity total = sum_k d_k x_k holds to float precision.
    total = sum(ss.degrees[k] * efforts[k] for k in ss.sizes)
    lam = ss.cost.c_prime(total)
    # An effort of 0 is the corner left by a target below float range; its
    # first-order condition holds as an inequality, and f'(0)/f(0) is 1/0.
    residuals = {
        k: 0.0
        if efforts[k] == 0.0
        else abs(
            targets[k]
            * ss.productions[k].f_prime(efforts[k])
            / ss.productions[k].f(efforts[k])
            - lam
        )
        for k in ss.sizes
    }
    return DEResult(
        efforts=efforts,
        marginal_cost=lam,
        total=total,
        payoff=_symmetric_payoff(ss, total),
        residuals=residuals,
    )


def solve_ue(
    ss: SemiSymmetricStructure, cfg: BracketingConfig = DEFAULT_CONFIG
) -> UEResult:
    """Solve the uniform-effort equilibrium.

    With a single effort level x in all battles, the first-order condition
    aggregates the marginal benefits of all battle sizes:
    ``sum_k w_k f_k'(x)/f_k(x) = D C'(D x)`` with ``w_k = d_k v_k (k-1)/k^2``
    and ``D`` the number of battles per player.  Since ``f_k'/f_k = 1/h_k``
    and every ``h_k`` is strictly increasing, ``D C'(D x) - sum_k w_k / h_k(x)``
    is strictly increasing in x, so one Brent root gives the effort, whether
    or not the production functions differ across sizes.
    """
    weights = {k: ss.degrees[k] * ss.prizes[k] * _size_weight(k) for k in ss.sizes}
    D = ss.total_degree

    def gap(x: float) -> float:
        benefit = 0.0
        for k in ss.sizes:
            h = ss.productions[k].h(x)
            if h == 0.0:
                # h underflowed: the marginal benefit is beyond float range.
                return -math.inf
            benefit += weights[k] / h
        return D * ss.cost.c_prime(D * x) - benefit

    effort = brent_increasing(gap, 0.0, cfg)
    total = D * effort
    lam = ss.cost.c_prime(total) * D
    benefit = sum(
        weights[k] * ss.productions[k].f_prime(effort) / ss.productions[k].f(effort)
        for k in ss.sizes
    )
    return UEResult(
        effort=effort,
        marginal_cost=lam,
        total=total,
        payoff=_symmetric_payoff(ss, total),
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
