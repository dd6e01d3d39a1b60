"""Regime comparison and neutrality.

The curvature of the inverse semi-elasticity ``h = f / f'`` decides how the
two effort regimes compare: convex h means discriminatory effort (DE) yields
at most the uniform-effort (UE) total and at least the UE payoff, concave h
the reverse, and linear h (exactly the power families) makes the regimes
equivalent.  The curvature verdict is the shared production family's own
analytic label, ``h_curvature()``; no h is sampled to check it.

``compare_regimes`` solves both regimes in full; ``neutrality_check`` and
the sweep's rows solve each grid point to its two totals only, through
``equilibrium._solve_totals``, from the base's ``(k, d_k, f_k)`` per size
and the point's prizes in size order: no point builds or re-validates a
structure, and a neutrality entry checks only its own prizes, by the
structure's prize rule.  Both measure the relative gap ``|X_de - X_ue| /
X_ue`` through one helper.  Each solve starts its root search from the
closed-form start of :mod:`conflictnet.equilibrium` and keeps no state, so
a grid point's answer does not depend on the points before it or on their
order.  ``neutrality_check`` reads its prize grid one entry at a time, so a
lazily drawn grid is never held whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equilibrium import (
    DEResult, UEResult, _solve_totals, solve_de, solve_ue, tullock_closed_form_total,
)
from .functions import PowerProduction
from .network import SemiSymmetricStructure, _check_prize

__all__ = [
    "ComparisonReport",
    "NeutralityReport",
    "compare_regimes",
    "neutrality_check",
    "tullock_closed_form_total",
    "NEUTRALITY_TOL",
]

# Relative total-effort gap below which the two regimes count as equal.  It
# holds only because every structured solve stops at ``rootfind.REL_TOL``,
# four orders tighter, and no caller can loosen that, so root-finding error
# cannot cross it.
NEUTRALITY_TOL = 1e-6

# ---------------------------------------------------------------------------
# Regime comparison
# ---------------------------------------------------------------------------

def _relative_gap(de_total: float, ue_total: float) -> float:
    """Relative gap ``|X_de - X_ue| / X_ue`` of the two regimes' totals;
    every DE/UE comparison in the package measures it here."""
    return abs(de_total - ue_total) / abs(ue_total)


_RECOMMENDATION = {"convex": "ue", "concave": "de", "linear": "indifferent"}

# Effort ordering each curvature class predicts, as a set of admissible
# comparison outcomes for the DE total against the UE total.
_PREDICTED_ORDERINGS = {
    "convex": {"<", "="},
    "concave": {">", "="},
    "linear": {"="},
}


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side DE and UE solution of one semi-symmetric structure."""

    structure: SemiSymmetricStructure
    curvature: str | None  # the common production's h_curvature() label
    de: DEResult
    ue: UEResult
    ordering: str  # "<", "=", ">" comparing the DE total with the UE total
    effort_gap: float  # relative |X_de - X_ue| / X_ue
    payoff_gap: float  # |payoff_de - payoff_ue| / sum_k d_k v_k / k
    theorem_consistent: bool | None
    recommendation: str | None

    @property
    def verdict(self) -> str:
        """The curvature verdict, or ``"heterogeneous"`` when the sizes
        share no production function."""
        return self.curvature or "heterogeneous"

    def to_dict(self) -> dict:
        """JSON-ready summary with deterministic key order when dumped."""
        summary = {
            "sizes": list(self.structure.sizes),
            "degrees": {str(k): self.structure.degrees[k] for k in self.structure.sizes},
            "prizes": {str(k): self.structure.prizes[k] for k in self.structure.sizes},
            "productions": {
                str(k): self.structure.productions[k].to_spec()
                for k in self.structure.sizes
            },
            "cost": self.structure.cost.to_spec(),
        }
        return {
            "structure": summary,
            "verdict": self.verdict,
            "X_de": self.de.total,
            "X_ue": self.ue.total,
            "payoffs_de": self.de.payoff,
            "payoffs_ue": self.ue.payoff,
            "ordering": self.ordering,
            "consistent": self.theorem_consistent,
            "recommendation": self.recommendation,
            "gaps": [self.effort_gap, self.payoff_gap],
        }


def compare_regimes(ss: SemiSymmetricStructure) -> ComparisonReport:
    """Solve both regimes and check the ordering the curvature of h predicts.

    A curvature-based prediction needs one shared production function across
    battle sizes, and reads its label ``h_curvature()``; with heterogeneous functions the report abstains unless all
    of them are power functions, in which case the regimes are equivalent and
    equality is the prediction.  Payoff orderings are checked alongside
    effort orderings (they are mirror images, the prize terms being equal at
    symmetric profiles).
    """
    de = solve_de(ss)
    ue = solve_ue(ss)
    effort_gap = _relative_gap(de.total, ue.total)
    # Payoffs are prizes minus a cost that scales like effort squared, so
    # their gap is measured against the prize term, not the total.
    prize_term = ss.prize_term
    payoff_gap = abs(de.payoff - ue.payoff) / prize_term
    if effort_gap <= NEUTRALITY_TOL:
        ordering = "="
    elif de.total < ue.total:
        ordering = "<"
    else:
        ordering = ">"

    common = ss.common_production()
    all_power = all(
        isinstance(ss.productions[k], PowerProduction) for k in ss.sizes
    )
    curvature = None
    predicted: set[str] | None = None
    if common is not None:
        curvature = common.h_curvature()
        predicted = _PREDICTED_ORDERINGS[curvature]
    elif all_power:
        predicted = {"="}

    if predicted is None:
        consistent = None
    else:
        payoff_ok = {
            "<": de.payoff >= ue.payoff - NEUTRALITY_TOL * prize_term,
            ">": de.payoff <= ue.payoff + NEUTRALITY_TOL * prize_term,
            "=": payoff_gap <= NEUTRALITY_TOL,
        }[ordering]
        consistent = ordering in predicted and payoff_ok

    recommendation = (
        _RECOMMENDATION[curvature] if curvature is not None
        else ("indifferent" if all_power else None)
    )
    return ComparisonReport(
        structure=ss,
        curvature=curvature,
        de=de,
        ue=ue,
        ordering=ordering,
        effort_gap=effort_gap,
        payoff_gap=payoff_gap,
        theorem_consistent=consistent,
        recommendation=recommendation,
    )


# ---------------------------------------------------------------------------
# Neutrality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeutralityReport:
    """Worst relative DE/UE total-effort gap over a grid of prize vectors."""

    neutral: bool
    max_gap: float
    worst_prizes: dict[int, float] | None
    worst_de_total: float | None
    worst_ue_total: float | None
    grid_size: int

    def to_dict(self) -> dict:
        return {
            "neutral": self.neutral,
            "max_gap": self.max_gap,
            "worst": None
            if self.worst_prizes is None
            else {
                "prizes": {str(k): v for k, v in sorted(self.worst_prizes.items())},
                "X_de": self.worst_de_total,
                "X_ue": self.worst_ue_total,
            },
            "grid_size": self.grid_size,
        }


def neutrality_check(structure: SemiSymmetricStructure, valuation_grid) -> NeutralityReport:
    """Test whether DE and UE totals coincide across a grid of prize vectors.

    Each grid entry assigns one prize per battle size: a mapping keyed by
    size (an integer or its digits, each size once), or a sequence, not a
    string, ordered by ascending size.  The grid may be any
    iterable, a one-shot generator included: entries are read and solved one
    at a time, and ``grid_size`` counts those read.  The structure's own
    prizes are irrelevant; only sizes, degrees, production functions, and
    cost matter, and every entry's prizes must be positive and finite.
    Neutral means every relative gap is at most
    ``NEUTRALITY_TOL``; power production functions achieve this for every
    grid, and for any other family some prize vector breaks it.
    """
    max_gap = -1.0
    worst = None
    grid_size = 0
    sizes = structure.sizes
    classes, count, cost = structure.size_classes, structure.total_degree, structure.cost
    for entry in valuation_grid:
        grid_size += 1
        if isinstance(entry, (str, bytes)):
            raise ValueError(f"prize vector {entry!r} is text, not a prize per size")
        if isinstance(entry, dict):
            named = [int(k) if isinstance(k, str) and k.isdecimal() else k for k in entry]
            if len(named) != len(sizes) or set(named) != set(sizes):
                raise ValueError(f"prize sizes {named} do not match sizes {sizes}")
            by_size = dict(zip(named, entry.values()))
            point = [by_size[k] for k in sizes]
        else:
            point = list(entry)
            if len(point) != len(sizes):
                raise ValueError(f"prize vector {point} does not match sizes {sizes}")
        for k, v in zip(sizes, point):
            _check_prize(k, v)
        point = [float(v) for v in point]
        de_total, ue_total = _solve_totals(classes, point, count, cost)
        gap = _relative_gap(de_total, ue_total)
        if gap > max_gap:
            max_gap = gap
            worst = (point, de_total, ue_total)
    if grid_size == 0:
        raise ValueError("valuation grid must not be empty")

    point, de_total, ue_total = worst
    return NeutralityReport(
        neutral=max_gap <= NEUTRALITY_TOL,
        max_gap=max_gap,
        worst_prizes=dict(zip(sizes, point)),
        worst_de_total=de_total,
        worst_ue_total=ue_total,
        grid_size=grid_size,
    )

