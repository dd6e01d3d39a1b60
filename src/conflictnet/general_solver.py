"""Equilibrium computation on arbitrary conflict networks.

The structured solvers in :mod:`conflictnet.equilibrium` exploit
semi-symmetry; this module makes no structural assumption.  Payoffs are
concave in own efforts, so a player's best response is one monotone root.
Each contested battle's first-order condition is the battle condition
``Phi_b(x) = h_b(x) / (p (1 - p)) = v_b / lam`` of
:func:`conflictnet.network.battle_condition`, with ``p`` the contest share
against the rivals' fixed score; at symmetry it is the structured engine's
``h(x) = t / lam``.  So both best responses are the structured engine's
roots over one term per battle: under DE its root on the total over
per-battle maps of ``v_b / lam`` (:func:`_battle_effort`), under UE its
root on the effort over the ``(v_b, Phi_b)`` pairs.  Each family's
``g_inv`` inverts ``Phi`` without a bracketed search, and this module calls
no root finder itself.
Equilibria are then computed by simultaneous best-response iteration; the
sweep that ends it also certifies the profile it answered, by the largest
payoff gain a switch to its responses would bring.  The iteration starts
from each player's symmetric first-order solution: the efforts the player
would exert if every rival mirrored it, which the structured engine's solve
(``equilibrium._de_efforts`` or ``_ue_effort``) gives over the player's own
battles.  On a semi-symmetric network that start is the equilibrium, and
the first sweep certifies it.
A brute-force grid oracle with its own shares provides an independent
desk-scale cross-check.

When every rival in a battle exerts zero effort the payoff is discontinuous
at zero (an infinitesimal effort wins outright), so the marginal benefit is
effectively unbounded; such battles receive a floor effort and are reported,
rather than dividing by zero.  The floor is ``1e-12`` times the largest
effort of the symmetric uniform-effort start (see :func:`_degenerate_floor`),
so it lies as far below the equilibrium efforts at prizes of 1e-300 as at
1e300; a solve computes it once, the first time it meets such a battle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    _closed_form_start, _de_efforts, _h_inverses, _terms, _ue_effort, _weighted_h,
)
from .errors import DimensionTooLarge
from .network import Battle, ConflictNetwork, EffortProfile, PlayerId
from .network import battle_condition, marginal_benefit, payoff, rival_score

__all__ = [
    "IterationConfig",
    "SolveOutcome",
    "best_response",
    "solve_nash_iterative",
    "solve_nash_ue_iterative",
    "brute_force_nash",
]

# Effort assigned in a battle whose rivals all exert zero, relative to the
# largest effort of the symmetric uniform-effort start.
_FLOOR_RATIO = 1e-12

# Inner root finds run well below the profile-change tolerance so that
# best-response quantization noise cannot stall the outer iteration.
_INNER_REL_TOL = 1e-13

# Relative deviation-gain bound certifying an equilibrium.
_GAIN_TOL = 1e-6


@dataclass(frozen=True)
class IterationConfig:
    """Controls for the simultaneous best-response iteration: stop once no
    effort moves by more than ``tolerance`` times the largest effort, or
    after ``max_iterations`` sweeps (an ``int``, at least 1); start from each
    player's symmetric first-order solution (``"symmetric"``) or from
    efforts log-uniform on [0.05, 5] drawn with ``seed`` (``"random"``).
    Every sweep moves each effort to its best response; at least one sweep
    is needed to certify a profile."""

    max_iterations: int = 10_000
    tolerance: float = 1e-10
    initial: str = "symmetric"
    seed: int | None = None

    def __post_init__(self):
        cap = self.max_iterations
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise ValueError(f"max_iterations must be an int of at least 1, got {cap!r}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.initial not in ("symmetric", "random"):
            raise ValueError(f"unknown initial profile spec {self.initial!r}")


@dataclass(frozen=True)
class SolveOutcome:
    """Final profile of an iterative solve plus its convergence certificate.

    ``profile`` is the profile the last sweep answered, and the last sweep
    certifies it: ``deviation_gain`` is the largest payoff improvement any
    player gets by switching to that sweep's best response, and
    ``degenerate_battles`` are the battles it gave the floor effort.
    ``converged`` requires both the profile-change criterion and a deviation
    gain at most 1e-6 times the largest prize.
    """

    profile: EffortProfile
    converged: bool
    iterations: int
    deviation_gain: float
    degenerate_battles: tuple[str, ...]


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def _own_terms(network: ConflictNetwork, player: PlayerId):
    """The structured engine's terms over ``player``'s battles, each one
    battle of its own size, production and prize."""
    battles = network.battles_of(player)
    return _terms([(b.size, 1, b.production) for b in battles], [b.prize for b in battles])


def _symmetric_de_start(network: ConflictNetwork) -> EffortProfile:
    """Each player's discriminatory efforts when every rival mirrors it:
    the structured engine's solve over the player's own battles, in which
    battle b takes ``h_b^{-1}(v_b (k_b - 1) / k_b^2 / C'(mu))``."""
    efforts = {}
    for p in network.players:
        terms = _own_terms(network, p)
        start = _closed_form_start(terms, network.cost)
        xs = _de_efforts(_h_inverses(terms), network.cost, _INNER_REL_TOL, start)
        for b, x in zip(network.battles_of(p), xs):
            efforts[(p, b.id)] = x
    return EffortProfile(efforts)


def _symmetric_ue_start(network: ConflictNetwork) -> EffortProfile:
    """Each player's uniform effort when every rival mirrors it: the
    structured engine's root x of ``n C'(n x) = sum_b v_b (k_b - 1) / k_b^2
    / h_b(x)`` over its ``n`` battles, in all of them."""
    efforts = {}
    for p in network.players:
        terms = _own_terms(network, p)
        start = _closed_form_start(terms, network.cost)
        x = _ue_effort(_weighted_h(terms), len(terms), network.cost, _INNER_REL_TOL, start)
        for b in network.battles_of(p):
            efforts[(p, b.id)] = x
    return EffortProfile(efforts)


def _degenerate_floor(network: ConflictNetwork) -> float:
    """Effort for a battle whose rivals all exert zero.

    It is ``_FLOOR_RATIO`` times the largest effort of the symmetric
    uniform-effort start, the network's effort scale.  Scaled so, the floor
    stays far below the equilibrium efforts at every prize scale; one
    sitting above them can keep the profile flipping between two states
    that each have degenerate battles.
    """
    return _FLOOR_RATIO * max(_symmetric_ue_start(network).efforts.values())


def _contested(
    network: ConflictNetwork, player: PlayerId, others: EffortProfile
) -> tuple[list[tuple[Battle, float]], tuple[str, ...]]:
    """``(battle, S)`` for each battle with rival score S > 0; ids where S = 0."""
    active: list[tuple[Battle, float]] = []
    degenerate: list[str] = []
    for b in network.battles_of(player):
        s = rival_score(b, others.efforts, player)
        if s == 0.0:
            degenerate.append(b.id)
        else:
            active.append((b, s))
    return active, tuple(degenerate)


def _battle_effort(battle: Battle, rivals: float):
    """The map from ``u = v / lam`` to the effort solving the battle
    condition ``Phi(x) = u`` against the rival score S = ``rivals``, or 0 at
    the corner.

    A ``u`` at or below ``Phi(0) = S / f'(0)``, computed once per map, is the
    corner 0: ``Phi(0)`` is 0 where f'(0) is infinite.  Above it the
    family's ``g_inv`` gives the effort, and an infinite ``u`` an infinite
    one.
    """
    pf = battle.production

    # The map's state sits in defaults, read as locals in the DE root's inner loop.
    def effort(u: float, g_inv=pf.g_inv, rivals=rivals,
               corner=battle_condition(pf, rivals, 0.0)) -> float:
        if u <= corner:
            return 0.0
        if u == math.inf:
            # A bracket search far below the root on the total meets this;
            # g_inv would make NaN of it.
            return math.inf
        return g_inv(rivals, u, u - corner)

    return effort


def _best_response_discriminatory(
    network: ConflictNetwork, player: PlayerId, profile: EffortProfile, floor
) -> tuple[dict[str, float], tuple[str, ...]]:
    """Per-battle best response to ``profile`` and the battles given the
    floor effort ``floor()``: the DE root over each contested battle's map,
    offset by the floor efforts and seeded from the player's own efforts."""
    active, degenerate = _contested(network, player, profile)
    x = floor() if degenerate else 0.0
    efforts = {bid: x for bid in degenerate}
    floor_total = x * len(degenerate)
    if not active:
        return efforts, degenerate

    # All-corner check at zero total effort.
    lam0 = network.cost.c_prime(floor_total)
    if all(marginal_benefit(b, 0.0, s) <= lam0 for b, s in active):
        efforts.update({b.id: 0.0 for b, _ in active})
        return efforts, degenerate

    seed = sum(profile.efforts.get((player, b.id), 0.0) for b, _ in active)
    terms = [(1.0, _battle_effort(b, s), b.prize) for b, s in active]
    xs = _de_efforts(terms, network.cost, _INNER_REL_TOL, seed if seed > 0 else 1.0, floor_total)
    efforts.update(zip((b.id for b, _ in active), xs))
    return efforts, degenerate


def best_response(
    network: ConflictNetwork, player: PlayerId, others: EffortProfile
) -> dict[str, float]:
    """Payoff-maximizing per-battle efforts against fixed rival efforts.

    Rival efforts enter only through the per-battle score sums, so the result
    is invariant to permuting rivals within a battle.  A battle whose rivals
    all sit at zero gets the floor effort the iterative solvers use (see
    :func:`_degenerate_floor`).  The player's own efforts in ``others``,
    where present, only seed the search.
    """
    efforts, _ = _best_response_discriminatory(
        network, player, others, lambda: _degenerate_floor(network)
    )
    return efforts


def _best_response_uniform(
    network: ConflictNetwork, player: PlayerId, profile: EffortProfile, floor
) -> tuple[dict[str, float], tuple[str, ...]]:
    """Best single effort level applied to all of the player's battles, or
    ``floor()`` when every one is degenerate: the structured UE root over
    each contested battle's ``(v_b, Phi_b)``, seeded from the player's
    current effort (1 where it is 0)."""
    own = network.battles_of(player)
    count = len(own)
    active, degenerate = _contested(network, player, profile)
    if not active:
        x = floor()
        return {b.id: x for b in own}, degenerate

    mb0 = sum(marginal_benefit(b, 0.0, s) for b, s in active)
    if mb0 <= count * network.cost.c_prime(0.0):
        return {b.id: 0.0 for b in own}, degenerate

    conditions = [
        (b.prize, functools.partial(battle_condition, b.production, s)) for b, s in active
    ]
    seed = profile.effort(player, own[0].id)
    effort = _ue_effort(conditions, count, network.cost, _INNER_REL_TOL, count * (seed or 1.0))
    return {b.id: effort for b in own}, degenerate


# ---------------------------------------------------------------------------
# Iterative solvers
# ---------------------------------------------------------------------------

def _random_profile(network: ConflictNetwork, seed: int | None) -> EffortProfile:
    rng = np.random.default_rng(seed)
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


def _iterate(network, cfg, respond, symmetric_start):
    """Shared simultaneous best-response loop.

    It starts from ``symmetric_start(network)``, the regime's symmetric
    first-order solution, unless ``cfg`` asks for a random profile.
    ``respond(network, player, profile, floor)`` returns the player's
    efforts by battle id and the ids of battles given the floor effort
    ``floor()``; it must be a pure function of the frozen profile.  The
    floor is computed on its first call and kept for the rest of the solve.
    Every sweep answers the current profile for all players at once.  The
    sweep that meets the stop rule, or the last one allowed, certifies the
    profile it answered, which is the one returned.
    """
    if cfg.initial == "symmetric":
        profile = symmetric_start(network)
    else:
        profile = _random_profile(network, cfg.seed)
    floor = functools.cache(lambda: _degenerate_floor(network))
    for iterations in range(1, cfg.max_iterations + 1):
        responses = {}
        degenerate: set[str] = set()
        for p in network.players:
            responses[p], degen = respond(network, p, profile, floor)
            degenerate.update(degen)

        delta = 0.0
        largest = 0.0
        for (p, bid), old in profile.efforts.items():
            new = responses[p][bid]
            delta = max(delta, abs(new - old))
            largest = max(largest, new)

        # Relative to the largest effort, so the rule reads the same at
        # every prize scale.  A sweep that gave some battle the floor effort
        # has not converged: the floor only stands in for the response to
        # rivals who all sat at 0.
        converged = delta <= cfg.tolerance * largest and not degenerate
        if converged or iterations == cfg.max_iterations:
            break
        profile = EffortProfile(
            {(p, bid): responses[p][bid] for p, bid in profile.efforts}
        )

    gain = _deviation_gain(network, profile, responses)
    return SolveOutcome(
        profile=profile,
        converged=converged and gain <= _GAIN_TOL * network.max_prize,
        iterations=iterations,
        deviation_gain=gain,
        degenerate_battles=tuple(sorted(degenerate)),
    )


def solve_nash_iterative(
    network: ConflictNetwork, cfg: IterationConfig = IterationConfig()
) -> SolveOutcome:
    """Nash equilibrium under per-battle (discriminatory) strategies.

    Simultaneous best-response iteration until the max-norm profile change
    is at most the tolerance times the largest effort, or the iteration cap
    is hit.  Always returns the last profile answered; non-convergence is
    reported through the ``converged`` flag, never silently.
    """
    return _iterate(network, cfg, _best_response_discriminatory, _symmetric_de_start)


def solve_nash_ue_iterative(
    network: ConflictNetwork, cfg: IterationConfig = IterationConfig()
) -> SolveOutcome:
    """Nash equilibrium when each player must use one effort in all battles."""
    return _iterate(network, cfg, _best_response_uniform, _symmetric_ue_start)


# ---------------------------------------------------------------------------
# Brute-force grid oracle
# ---------------------------------------------------------------------------

_MAX_GRID_CELLS = 10_000_000


def brute_force_nash(
    network: ConflictNetwork,
    grid,
    uniform: bool = False,
) -> list[EffortProfile]:
    """Exhaustive grid search for approximate equilibria.

    Every profile on the grid is kept if no player can improve her payoff
    through grid deviations of her own coordinates by more than twice the
    largest grid step times the largest prize, a first-order bound on the
    discretization error.  One grid dimension per (player, battle) slot, or
    per player when ``uniform`` is set.
    Candidates are ordered by increasing worst deviation gain, so the first
    entry is the grid's best equilibrium estimate.

    Raises:
        DimensionTooLarge: more than 6 dimensions, more than 201 grid points
            per dimension, or more grid cells than fit in memory.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    if not np.all((grid >= 0) & (grid < math.inf)):
        raise ValueError("grid efforts must be finite and nonnegative")
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

    epsilon = 2.0 * float(np.diff(grid).max()) * network.max_prize

    def axis(values: np.ndarray, d: int) -> np.ndarray:
        shape = [1] * ndim
        shape[d] = values.size
        return values.reshape(shape)

    # Per-battle winning probabilities over the whole grid, then payoffs.
    cost = network.cost
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
        # The whole grid is priced at once; ``PowerCost.c`` takes one float.
        payoffs[p] = value - cost.kappa * total**cost.p / cost.p

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
