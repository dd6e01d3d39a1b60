"""Conflict network domain types and the payoff machinery.

A network is a set of players, a set of multi-participant battles with prizes
and per-battle production functions, and one shared cost function on each
player's total effort.  Winning probabilities follow the logit form
``p_i = f(x_i) / sum_j f(x_j)`` with the uniform convention ``1/n`` when every
participant exerts zero effort; every caller shares the one definition
below.  All types are immutable after construction and every operation is
a pure function, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Hashable, Iterable, Mapping

import numpy as np

from .errors import UnknownPlayer
from .functions import PowerCost, ProductionFunction

PlayerId = Hashable

__all__ = [
    "Battle",
    "ConflictNetwork",
    "EffortProfile",
    "NotSemiSymmetric",
    "SemiSymmetricStructure",
    "rival_score",
    "contest_share",
    "marginal_benefit",
    "winning_probabilities",
    "payoff",
    "check_semi_symmetry",
]


class FieldError(ValueError):
    """A constructor argument breaks a rule; ``field`` names the argument."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class Battle:
    """A single contest over one prize among two or more players."""

    id: str
    participants: tuple[PlayerId, ...]
    prize: float
    production: ProductionFunction

    def __post_init__(self):
        object.__setattr__(self, "participants", tuple(self.participants))
        distinct = len(set(self.participants))
        if distinct < 2:
            raise FieldError(
                "participants",
                f"battle {self.id!r} needs at least 2 distinct participants",
            )
        if distinct != len(self.participants):
            raise FieldError(
                "participants", f"battle {self.id!r} lists a participant twice"
            )
        if not _is_prize(self.prize):
            raise FieldError(
                "prize",
                f"battle {self.id!r} prize must be positive and finite, got {self.prize}",
            )

    @property
    def size(self) -> int:
        return len(self.participants)


@dataclass(frozen=True)
class ConflictNetwork:
    """Players, battles, and one shared cost function.

    Incidence data (which battles a player attends) is derived once at
    construction time.
    """

    players: tuple[PlayerId, ...]
    battles: tuple[Battle, ...]
    cost: PowerCost
    _battles_by_player: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "battles", tuple(self.battles))
        if len(set(self.players)) != len(self.players):
            raise FieldError("players", "duplicate player ids")
        if not self.battles:
            raise FieldError("battles", "network needs at least one battle")
        ids = [b.id for b in self.battles]
        if len(set(ids)) != len(ids):
            raise FieldError("battles", "duplicate battle ids")
        player_set = set(self.players)
        by_player: dict[PlayerId, list[Battle]] = {p: [] for p in self.players}
        for battle in self.battles:
            for p in battle.participants:
                if p not in player_set:
                    raise FieldError(
                        "battles", f"battle {battle.id!r} references unknown player {p!r}"
                    )
                by_player[p].append(battle)
        idle = [p for p, bs in by_player.items() if not bs]
        if idle:
            raise FieldError("players", f"players in no battle: {idle}")
        object.__setattr__(
            self, "_battles_by_player", {p: tuple(bs) for p, bs in by_player.items()}
        )

    def battles_of(self, player: PlayerId) -> tuple[Battle, ...]:
        try:
            return self._battles_by_player[player]
        except KeyError:
            raise UnknownPlayer(f"unknown player {player!r}") from None

    @property
    def max_prize(self) -> float:
        return max(b.prize for b in self.battles)


@dataclass(frozen=True)
class EffortProfile:
    """Strategy profile: nonnegative effort for every (player, battle) slot."""

    efforts: Mapping[tuple[PlayerId, str], float]

    def __post_init__(self):
        object.__setattr__(self, "efforts", dict(self.efforts))
        for key, x in self.efforts.items():
            if not 0 <= x < math.inf:
                raise ValueError(f"non-finite or negative effort {x} at {key}")

    @classmethod
    def constant(cls, network: ConflictNetwork, value: float) -> "EffortProfile":
        return cls(
            {
                (p, b.id): value
                for p in network.players
                for b in network.battles_of(p)
            }
        )

    def effort(self, player: PlayerId, battle_id: str) -> float:
        return self.efforts[(player, battle_id)]

    def total(self, player: PlayerId) -> float:
        return sum(x for (p, _), x in self.efforts.items() if p == player)

    def battle_efforts(self, battle: Battle) -> list[float]:
        return [self.efforts[(p, battle.id)] for p in battle.participants]

    def max_norm_distance(self, other: "EffortProfile") -> float:
        keys = set(self.efforts) | set(other.efforts)
        return max(
            abs(self.efforts.get(k, 0.0) - other.efforts.get(k, 0.0)) for k in keys
        )


def rival_score(battle: Battle, efforts: Mapping, player: PlayerId) -> float:
    """Sum ``S`` of the scores ``f(x_j)`` of ``player``'s rivals in one battle;
    ``efforts`` is keyed by ``(player, battle_id)`` like ``EffortProfile``'s."""
    f = battle.production.f
    return sum(f(efforts[(p, battle.id)]) for p in battle.participants if p != player)


def contest_share(own: float, rivals: float, size: int) -> float:
    """Winning probability ``f(x) / (f(x) + S)`` of the score ``own = f(x)``
    against the rivals' score sum ``S``; ``1/size`` when every score is 0."""
    total = own + rivals
    if total == 0.0:
        return 1.0 / size
    return own / total


def marginal_benefit(battle: Battle, x: float, rivals: float) -> float:
    """Slope ``v f'(x) S / (f(x) + S)^2`` of ``v * contest_share`` in own
    effort, for ``S > 0``.  At ``x = 0``, where ``f(0) = 0``, it is
    ``v f'(0) / S``: ``inf`` when ``f'(0)`` is.  The square of ``f(x) + S``
    is never formed, so scores past 1e154 do not overflow."""
    fp = battle.production.f_prime(x)
    if x == 0.0:
        return battle.prize * fp / rivals
    score = battle.production.f(x) + rivals
    return battle.prize * fp * (rivals / score) / score


def winning_probabilities(battle: Battle, efforts: Iterable[float]) -> np.ndarray:
    """Per-participant winning probabilities of one battle.

    Probabilities are ``f(x_i) / sum_j f(x_j)``; if every effort is zero the
    battle is a fair lottery at ``1/n``.
    """
    efforts = np.asarray(list(efforts), dtype=float)
    if efforts.shape != (battle.size,):
        raise ValueError(
            f"expected {battle.size} efforts for battle {battle.id!r}, "
            f"got {efforts.shape}"
        )
    if not np.all((efforts >= 0) & (efforts < math.inf)):
        raise ValueError(f"efforts must be finite and nonnegative, got {efforts}")
    slots = {(p, battle.id): float(x) for p, x in zip(battle.participants, efforts)}
    return np.array([
        contest_share(battle.production.f(x), rival_score(battle, slots, p), battle.size)
        for (p, _), x in slots.items()
    ])


def payoff(network: ConflictNetwork, profile: EffortProfile, player: PlayerId) -> float:
    """Expected payoff: prize-weighted winning probabilities minus cost."""
    value = 0.0
    total_effort = 0.0
    for battle in network.battles_of(player):
        own = profile.effort(player, battle.id)
        total_effort += own
        rivals = rival_score(battle, profile.efforts, player)
        value += battle.prize * contest_share(battle.production.f(own), rivals, battle.size)
    return value - network.cost.c(total_effort)


# ---------------------------------------------------------------------------
# Semi-symmetry
# ---------------------------------------------------------------------------

def _is_prize(v) -> bool:
    """A valid prize: a real number, not a bool, positive and finite."""
    # A float, the common case, skips the abstract-class check.
    real = type(v) is float or (isinstance(v, Real) and not isinstance(v, bool))
    return real and 0 < v < math.inf


def _check_prize(k: int, v: float) -> None:
    """Raise unless ``v`` is a valid size-k prize."""
    if not _is_prize(v):
        raise ValueError(f"prize v_{k} must be positive and finite")


@dataclass(frozen=True)
class SemiSymmetricStructure:
    """Size-indexed summary of a semi-symmetric conflict network.

    Holds the battle sizes present, the per-player count ``d_k`` of size-k
    battles, and the size-determined prizes and production functions, plus the
    shared cost function.  This is all the structured solvers need; the
    underlying network layout is irrelevant to them.
    """

    sizes: tuple[int, ...]
    degrees: dict[int, int]
    prizes: dict[int, float]
    productions: dict[int, ProductionFunction]
    cost: PowerCost

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(sorted(self.sizes)))
        if not self.sizes:
            raise ValueError("structure needs at least one battle size")
        for k in self.sizes:
            if k < 2:
                raise ValueError(f"battle size must be >= 2, got {k}")
            if self.degrees.get(k, 0) < 1:
                raise ValueError(f"degree d_{k} must be >= 1")
            _check_prize(k, self.prizes.get(k, 0.0))
            if k not in self.productions:
                raise ValueError(f"missing production function for size {k}")

    @property
    def total_degree(self) -> int:
        """Number of battles each player participates in."""
        return sum(self.degrees[k] for k in self.sizes)

    @property
    def size_classes(self) -> tuple:
        """``(k, d_k, f_k)`` per battle size, in size order."""
        return tuple((k, self.degrees[k], self.productions[k]) for k in self.sizes)

    @property
    def prize_term(self) -> float:
        """Expected prizes ``sum_k d_k v_k / k`` per player at symmetry."""
        return sum(self.degrees[k] * self.prizes[k] / k for k in self.sizes)

    def common_production(self) -> ProductionFunction | None:
        """The shared production function, or None if sizes differ."""
        functions = [self.productions[k] for k in self.sizes]
        first = functions[0]
        return first if all(g == first for g in functions[1:]) else None

    def with_prizes(self, prizes: Mapping[int, float]) -> "SemiSymmetricStructure":
        """Copy of this structure with replaced per-size prizes."""
        return SemiSymmetricStructure(
            sizes=self.sizes,
            degrees=dict(self.degrees),
            prizes={k: float(prizes[k]) for k in self.sizes},
            productions=dict(self.productions),
            cost=self.cost,
        )


class NotSemiSymmetric(ValueError):
    """A network breaks semi-symmetry; ``violations`` holds one message per
    broken condition."""

    def __init__(self, violations: tuple[str, ...]):
        super().__init__(f"network is not semi-symmetric: {'; '.join(violations)}")
        self.violations = violations


def check_semi_symmetry(network: ConflictNetwork) -> SemiSymmetricStructure:
    """The size-indexed structure of a semi-symmetric network.

    Semi-symmetry requires that every player participates in the same number
    of size-k battles for each size k, and that prize and production function
    are constant within each size class.  One pass over the battles gathers
    each size class and its per-player counts.  Raises ``NotSemiSymmetric``
    naming every violated condition: the counts of each size in size order,
    then each size's prizes and production functions.
    """
    players = network.players
    classes: dict[int, list[Battle]] = {}
    counts: dict[int, dict[PlayerId, int]] = {}
    for b in network.battles:
        k = len(b.participants)
        if k not in classes:
            classes[k] = []
            counts[k] = dict.fromkeys(players, 0)
        classes[k].append(b)
        per_player = counts[k]
        for p in b.participants:
            per_player[p] += 1
    sizes = sorted(classes)
    violations: list[str] = []

    degrees: dict[int, int] = {}
    for k in sizes:
        reference = counts[k][players[0]]
        for p, c in counts[k].items():
            if c != reference:
                violations.append(
                    f"player {p!r} attends {c} size-{k} battles, "
                    f"player {players[0]!r} attends {reference}"
                )
        degrees[k] = reference

    prizes: dict[int, float] = {}
    productions: dict[int, ProductionFunction] = {}
    for k in sizes:
        class_battles = classes[k]
        distinct_prizes = sorted({b.prize for b in class_battles})
        if len(distinct_prizes) > 1:
            violations.append(f"size-{k} prizes not constant: {distinct_prizes}")
        prizes[k] = class_battles[0].prize
        distinct_productions = []
        for b in class_battles:
            if b.production not in distinct_productions:
                distinct_productions.append(b.production)
        if len(distinct_productions) > 1:
            violations.append(
                f"size-{k} production functions not constant: {distinct_productions}"
            )
        productions[k] = class_battles[0].production

    if violations:
        raise NotSemiSymmetric(tuple(violations))
    return SemiSymmetricStructure(
        sizes=tuple(sizes),
        degrees=degrees,
        prizes=prizes,
        productions=productions,
        cost=network.cost,
    )
