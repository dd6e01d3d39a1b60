"""Equilibrium computation on arbitrary conflict networks.

The structured solvers in :mod:`conflictnet.equilibrium` exploit
semi-symmetry; this module makes no structural assumption.  Payoffs are
concave in own efforts, so a player's best response is a nested monotone
search: for a candidate marginal cost each battle's effort solves its own
first-order condition, and the player's total is closed by a scalar root
find.  Equilibria are then computed by damped simultaneous best-response
iteration, with a deviation-gain certificate at the final profile.  A
brute-force grid oracle provides an independent desk-scale cross-check.

When every rival in a battle exerts zero effort the payoff is discontinuous
at zero (an infinitesimal effort wins outright), so the marginal benefit is
effectively unbounded; such battles receive a tiny floor effort and are
reported, rather than dividing by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBattle, DimensionTooLarge
from .network import Battle, ConflictNetwork, EffortProfile, PlayerId, payoff
from .rootfind import BracketingConfig, brent_increasing

__all__ = [
    "IterationConfig",
    "SolveOutcome",
    "best_response",
    "solve_nash_iterative",
    "solve_nash_ue_iterative",
    "brute_force_nash",
    "DEGENERATE_FLOOR",
]

# Effort assigned in a battle whose rivals all exert zero.
DEGENERATE_FLOOR = 1e-12

# Inner root finds run well below the profile-change tolerance so that
# best-response quantization noise cannot stall the outer iteration.
_INNER_CFG = BracketingConfig(rel_tol=1e-13)

# Relative deviation-gain bound certifying an equilibrium.
_GAIN_TOL = 1e-6


@dataclass(frozen=True)
class IterationConfig:
    """Controls for the damped simultaneous best-response iteration."""

    max_iterations: int = 10_000
    tolerance: float = 1e-10
    damping: float = 1.0
    initial: str = "constant"  # "constant" | "random" | "explicit"
    initial_value: float = 1.0
    seed: int | None = None
    initial_profile: EffortProfile | None = None

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.initial not in ("constant", "random", "explicit"):
            raise ValueError(f"unknown initial profile spec {self.initial!r}")
        if self.initial == "explicit" and self.initial_profile is None:
            raise ValueError("explicit start requires initial_profile")


@dataclass(frozen=True)
class SolveOutcome:
    """Final profile of an iterative solve plus its convergence certificate.

    ``deviation_gain`` is the largest payoff improvement any player could
    still achieve by best responding to the final profile; ``converged``
    requires both the profile-change criterion and a deviation gain at most
    1e-6 times the largest prize.
    """

    profile: EffortProfile
    converged: bool
    iterations: int
    deviation_gain: float
    degenerate_battles: tuple[str, ...] = field(default=())

    def totals(self, network: ConflictNetwork) -> dict[PlayerId, float]:
        return {p: self.profile.total(p) for p in network.players}


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def _rival_score(battle: Battle, profile: EffortProfile, player: PlayerId) -> float:
    return sum(
        battle.production.f(profile.effort(p, battle.id))
        for p in battle.participants
        if p != player
    )


def _marginal_benefit_at_zero(battle: Battle, rival_score: float) -> float:
    fp0 = battle.production.f_prime(0.0)
    if math.isinf(fp0):
        return math.inf
    return battle.prize * fp0 / rival_score


def _battle_effort(battle: Battle, rival_score: float, lam: float, seed) -> float:
    """Effort solving v f'(x) S / (f(x) + S)^2 = lam, or 0 at the corner.

    Solved through the strictly increasing transform
    G(x) = (f(x) + S)^2 / f'(x), whose target is v S / lam.
    """
    pf = battle.production
    target = battle.prize * rival_score / lam
    fp0 = pf.f_prime(0.0)
    g0 = 0.0 if math.isinf(fp0) else rival_score**2 / fp0
    if target <= g0:
        return 0.0

    def transform(x):
        return (pf.f(x) + rival_score) ** 2 / pf.f_prime(x)

    return brent_increasing(transform, target, _INNER_CFG, seed=seed)


def _best_response_discriminatory(
    network: ConflictNetwork,
    player: PlayerId,
    others: EffortProfile,
    seeds: dict[str, float] | None = None,
    degenerate_floor: float | None = DEGENERATE_FLOOR,
) -> tuple[dict[str, float], tuple[str, ...]]:
    battles = network.battles_of(player)
    seeds = seeds or {}

    active: list[tuple[Battle, float]] = []
    degenerate: list[str] = []
    for b in battles:
        s = _rival_score(b, others, player)
        if s == 0.0:
            if degenerate_floor is None:
                raise DegenerateBattle(
                    f"all rivals exert zero effort in battle {b.id!r}"
                )
            degenerate.append(b.id)
        else:
            active.append((b, s))

    floor_total = (degenerate_floor or 0.0) * len(degenerate)
    efforts = {bid: degenerate_floor for bid in degenerate}
    if not active:
        return efforts, tuple(degenerate)

    # All-corner check at zero total effort.
    lam0 = network.cost.c_prime(floor_total)
    if all(_marginal_benefit_at_zero(b, s) <= lam0 for b, s in active):
        efforts.update({b.id: 0.0 for b, _ in active})
        return efforts, tuple(degenerate)

    def consistency_gap(total: float) -> float:
        lam = network.cost.c_prime(total)
        acc = floor_total
        for b, s in active:
            acc += _battle_effort(b, s, lam, seeds.get(b.id))
        return total - acc

    seed_total = sum(seeds.get(b.id, 0.0) for b, _ in active)
    total = brent_increasing(
        consistency_gap, 0.0, _INNER_CFG,
        seed=seed_total if seed_total > 0 else None,
    )
    lam = network.cost.c_prime(total)
    for b, s in active:
        efforts[b.id] = _battle_effort(b, s, lam, seeds.get(b.id))
    return efforts, tuple(degenerate)


def best_response(
    network: ConflictNetwork,
    player: PlayerId,
    others: EffortProfile,
    degenerate_floor: float | None = DEGENERATE_FLOOR,
) -> dict[str, float]:
    """Payoff-maximizing per-battle efforts against fixed rival efforts.

    Rival efforts enter only through the per-battle score sums, so the result
    is invariant to permuting rivals within a battle.  Pass
    ``degenerate_floor=None`` to raise :class:`DegenerateBattle` instead of
    flooring battles whose rivals all sit at zero.
    """
    efforts, _ = _best_response_discriminatory(
        network, player, others, degenerate_floor=degenerate_floor
    )
    return efforts


def _best_response_uniform(
    network: ConflictNetwork,
    player: PlayerId,
    others: EffortProfile,
    seed: float | None = None,
    degenerate_floor: float | None = DEGENERATE_FLOOR,
) -> tuple[float, tuple[str, ...]]:
    """Best single effort level applied to all of the player's battles."""
    battles = network.battles_of(player)
    count = len(battles)

    active: list[tuple[Battle, float]] = []
    degenerate: list[str] = []
    for b in battles:
        s = _rival_score(b, others, player)
        if s == 0.0:
            if degenerate_floor is None:
                raise DegenerateBattle(
                    f"all rivals exert zero effort in battle {b.id!r}"
                )
            degenerate.append(b.id)
        else:
            active.append((b, s))

    if not active:
        return (degenerate_floor or 0.0), tuple(degenerate)

    mb0 = sum(_marginal_benefit_at_zero(b, s) for b, s in active)
    if mb0 <= count * network.cost.c_prime(0.0):
        return 0.0, tuple(degenerate)

    def gap(x: float) -> float:
        benefit = 0.0
        for b, s in active:
            fx = b.production.f(x)
            benefit += b.prize * b.production.f_prime(x) * s / (fx + s) ** 2
        return count * network.cost.c_prime(count * x) - benefit

    effort = brent_increasing(gap, 0.0, _INNER_CFG, seed=seed)
    return effort, tuple(degenerate)


# ---------------------------------------------------------------------------
# Iterative solvers
# ---------------------------------------------------------------------------

def _initial_profile(network: ConflictNetwork, cfg: IterationConfig) -> EffortProfile:
    if cfg.initial == "constant":
        return EffortProfile.constant(network, cfg.initial_value)
    if cfg.initial == "explicit":
        profile = cfg.initial_profile
        profile.validate_for(network)
        return profile
    rng = np.random.default_rng(cfg.seed)
    efforts = {}
    for p in network.players:
        for b in network.battles_of(p):
            efforts[(p, b.id)] = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    return EffortProfile(efforts)


def _deviation_gain(
    network: ConflictNetwork,
    profile: EffortProfile,
    responses: dict[PlayerId, dict[str, float]],
) -> float:
    worst = 0.0
    for p in network.players:
        current = payoff(network, profile, p)
        trial = dict(profile.efforts)
        for bid, x in responses[p].items():
            trial[(p, bid)] = x
        improved = payoff(network, EffortProfile(trial), p)
        worst = max(worst, improved - current)
    return worst


def _iterate(network, cfg, respond):
    """Shared damped simultaneous-response loop.

    ``respond(profile, player) -> dict[battle_id, effort]`` must be a pure
    function of the frozen profile.  Damping halves automatically when the
    profile change fails to decrease for ten consecutive iterations.
    """
    profile = _initial_profile(network, cfg)
    weight = cfg.damping
    prev_delta = math.inf
    streak = 0
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iterations + 1):
        responses = {}
        for p in network.players:
            efforts, _ = respond(profile, p)
            responses[p] = efforts

        new_efforts = {}
        delta = 0.0
        for (p, bid), old in profile.efforts.items():
            target = responses[p][bid]
            new = old + weight * (target - old)
            new_efforts[(p, bid)] = new
            delta = max(delta, abs(new - old))
        profile = EffortProfile(new_efforts)

        if delta < cfg.tolerance:
            converged = True
            break
        if delta >= prev_delta:
            streak += 1
            if streak >= 10:
                weight = max(weight / 2.0, 1.0 / 64.0)
                streak = 0
                prev_delta = math.inf
                continue
        else:
            streak = 0
        prev_delta = delta

    final_responses = {}
    degenerate: set[str] = set()
    for p in network.players:
        efforts, degen = respond(profile, p)
        final_responses[p] = efforts
        degenerate.update(degen)
    gain = _deviation_gain(network, profile, final_responses)
    converged = converged and gain <= _GAIN_TOL * network.max_prize
    return SolveOutcome(
        profile=profile,
        converged=converged,
        iterations=iterations,
        deviation_gain=gain,
        degenerate_battles=tuple(sorted(degenerate)),
    )


def solve_nash_iterative(
    network: ConflictNetwork, cfg: IterationConfig = IterationConfig()
) -> SolveOutcome:
    """Nash equilibrium under per-battle (discriminatory) strategies.

    Damped simultaneous best-response iteration until the max-norm profile
    change drops below the tolerance or the iteration cap is hit.  Always
    returns the last profile; non-convergence is reported through the
    ``converged`` flag, never silently.
    """
    def respond(profile, player):
        seeds = {
            b.id: profile.effort(player, b.id)
            for b in network.battles_of(player)
            if profile.effort(player, b.id) > 0
        }
        return _best_response_discriminatory(network, player, profile, seeds=seeds)

    return _iterate(network, cfg, respond)


def solve_nash_ue_iterative(
    network: ConflictNetwork, cfg: IterationConfig = IterationConfig()
) -> SolveOutcome:
    """Nash equilibrium when each player must use one effort in all battles."""
    def respond(profile, player):
        own = network.battles_of(player)
        seed = profile.effort(player, own[0].id)
        effort, degen = _best_response_uniform(
            network, player, profile, seed=seed if seed > 0 else None
        )
        return {b.id: effort for b in own}, degen

    return _iterate(network, cfg, respond)


# ---------------------------------------------------------------------------
# Brute-force grid oracle
# ---------------------------------------------------------------------------

_MAX_GRID_CELLS = 10_000_000


def brute_force_nash(
    network: ConflictNetwork,
    grid,
    epsilon: float | None = None,
    uniform: bool = False,
) -> list[EffortProfile]:
    """Exhaustive grid search for approximate equilibria.

    Every profile on the grid is kept if no player can improve her payoff by
    more than ``epsilon`` through grid deviations of her own coordinates.
    One grid dimension per (player, battle) slot, or per player when
    ``uniform`` is set.  ``epsilon`` defaults to twice the grid step times
    the largest prize, a first-order bound on the discretization error.
    Candidates are ordered by increasing worst deviation gain, so the first
    entry is the grid's best equilibrium estimate.

    Raises:
        DimensionTooLarge: more than 6 dimensions, more than 201 grid points
            per dimension, or more grid cells than fit in memory.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    if np.any(grid < 0):
        raise ValueError("grid efforts must be nonnegative")
    if grid.size > 201:
        raise DimensionTooLarge(f"{grid.size} grid points per dimension (max 201)")

    if uniform:
        dims: list = list(network.players)
        dim_of = {
            (p, b.id): i
            for i, p in enumerate(network.players)
            for b in network.battles_of(p)
        }
    else:
        dims = [
            (p, b.id) for p in network.players for b in network.battles_of(p)
        ]
        dim_of = {key: i for i, key in enumerate(dims)}
    ndim = len(dims)
    if ndim > 6:
        raise DimensionTooLarge(f"{ndim} effort dimensions (max 6)")
    if grid.size**ndim > _MAX_GRID_CELLS:
        raise DimensionTooLarge(
            f"{grid.size}^{ndim} grid cells exceed the enumeration budget"
        )

    if epsilon is None:
        epsilon = 2.0 * float(np.diff(grid).max()) * network.max_prize

    def axis(values: np.ndarray, d: int) -> np.ndarray:
        shape = [1] * ndim
        shape[d] = values.size
        return values.reshape(shape)

    # Per-battle winning probabilities over the whole grid, then payoffs.
    payoffs = {}
    for p in network.players:
        own_battles = network.battles_of(p)
        total = sum(axis(grid, dim_of[(p, b.id)]) for b in own_battles)
        value = np.zeros([grid.size] * ndim)
        for b in own_battles:
            f_grid = np.array([b.production.f(float(x)) for x in grid])
            score_sum = sum(axis(f_grid, dim_of[(q, b.id)]) for q in b.participants)
            own = axis(f_grid, dim_of[(p, b.id)])
            contested = score_sum > 0.0
            prob = np.where(
                contested, own / np.where(contested, score_sum, 1.0), 1.0 / b.size
            )
            value = value + b.prize * prob
        payoffs[p] = value - network.cost.c(total)

    gains = np.zeros([grid.size] * ndim)
    for p in network.players:
        own_axes = tuple(
            sorted({dim_of[(p, b.id)] for b in network.battles_of(p)})
        )
        best = payoffs[p].max(axis=own_axes, keepdims=True)
        gains = np.maximum(gains, best - payoffs[p])

    candidates = []
    for index in np.argwhere(gains <= epsilon):
        efforts = {}
        for p in network.players:
            for b in network.battles_of(p):
                efforts[(p, b.id)] = float(grid[index[dim_of[(p, b.id)]]])
        candidates.append((float(gains[tuple(index)]), EffortProfile(efforts)))
    candidates.sort(key=lambda item: item[0])
    return [profile for _, profile in candidates]
