"""Curvature classification and regime comparison.

The curvature of the inverse semi-elasticity ``h = f / f'`` decides how the
two effort regimes compare: convex h means discriminatory effort (DE) yields
at most the uniform-effort (UE) total and at least the UE payoff, concave h
the reverse, and linear h (exactly the power families) makes the regimes
equivalent.  Each production family labels the curvature of its h
analytically; sampled midpoint-convexity defects of h can veto that label,
turning the verdict ``indeterminate``, but never replace it.

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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    DEResult, UEResult, _solve_totals, solve_de, solve_ue, tullock_closed_form_total,
)
from .functions import PowerProduction, ProductionFunction
from .network import SemiSymmetricStructure, _check_prize
from .rootfind import _SMALLEST

__all__ = [
    "CurvatureVerdict",
    "ComparisonReport",
    "NeutralityReport",
    "classify_h",
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

# Grid points of the curvature sample and the relative midpoint defect below
# which h counts as flat.
CURVATURE_SAMPLES = 128
CURVATURE_TOL = 1e-9


@dataclass(frozen=True)
class CurvatureVerdict:
    """Curvature of h with the sampled evidence against it.

    ``verdict`` is one of ``"convex"``, ``"concave"``, ``"linear"`` or
    ``"indeterminate"``: the family's analytic label, or ``indeterminate``
    where the sampled defects contradict it.  ``max_signed_defect`` is the
    extreme sampled midpoint defect ``h(m) - (h(a) + h(b))/2`` (negative for
    convex h).
    """

    verdict: str
    max_signed_defect: float


def classify_h(
    pf: ProductionFunction, domain: tuple[float, float] = (1e-2, 1e1)
) -> CurvatureVerdict:
    """Classify the curvature of h on a positive interval.

    The verdict is the family's analytic label (``pf.h_curvature()``) unless
    the sampled defects veto it.  Midpoint-convexity defects
    ``h((a+b)/2) - (h(a)+h(b))/2`` are sampled on a log-spaced grid of
    ``CURVATURE_SAMPLES`` points, over adjacent grid points (local curvature)
    and over chords from each point to the one half the grid away (curvature
    at scale): at most 319 evaluations of h and none of f or its
    derivatives.  A pair
    is dropped when h is not finite at either end or at its midpoint.  A
    defect of either sign beyond ``CURVATURE_TOL`` relative to the chord
    vetoes a linear label, and one of the wrong sign vetoes a convex or
    concave label; a vetoed verdict is ``indeterminate``.  A defect-free
    sample never turns a convex or concave label into linear.

    Args:
        pf: production function (validated).
        domain: positive interval to sample.
    """
    lo, hi = domain
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"domain must be a finite positive interval, got {domain}")

    xs = np.geomspace(lo, hi, CURVATURE_SAMPLES)
    h_vals = np.array([pf.h(float(x)) for x in xs])
    n, half = CURVATURE_SAMPLES, CURVATURE_SAMPLES // 2
    left = np.concatenate([np.arange(n - 1), np.arange(n - half)])
    right = np.concatenate([np.arange(1, n), np.arange(half, n)])
    keep = np.isfinite(h_vals[left]) & np.isfinite(h_vals[right])
    left, right = left[keep], right[keep]
    # Halving each term first cannot overflow and rounds like (a + b) / 2.
    mids = 0.5 * xs[left] + 0.5 * xs[right]
    chords = 0.5 * h_vals[left] + 0.5 * h_vals[right]
    mid_vals = np.array([pf.h(float(m)) for m in mids])
    keep = np.isfinite(mid_vals)
    defects = mid_vals[keep] - chords[keep]
    rel = defects / np.maximum(np.abs(chords[keep]), 1e-300)

    max_signed = float(defects[np.argmax(np.abs(rel))]) if rel.size else 0.0
    has_pos = bool(np.any(rel > CURVATURE_TOL))
    has_neg = bool(np.any(rel < -CURVATURE_TOL))
    if has_pos and has_neg:
        sampled = "mixed"
    elif has_pos:
        sampled = "concave"
    elif has_neg:
        sampled = "convex"
    else:
        sampled = "flat"

    analytic = pf.h_curvature()
    compatible = {
        "linear": {"flat"},
        "convex": {"convex", "flat"},
        "concave": {"concave", "flat"},
    }[analytic]
    verdict = analytic if sampled in compatible else "indeterminate"
    return CurvatureVerdict(verdict=verdict, max_signed_defect=max_signed)


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
    curvature: CurvatureVerdict | None
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
        return self.curvature.verdict if self.curvature else "heterogeneous"

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
    battle sizes; with heterogeneous functions the report abstains unless all
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
        # A corner effort of 0 has no curvature to sample around.
        # The sample stays within the positive floats, so efforts at either
        # end of the float range are sampled up to that end.
        span = [x for x in [*de.efforts.values(), ue.effort] if x > 0]
        lo = max(min(span) / 2.0, _SMALLEST)
        hi = min(max(span) * 2.0, sys.float_info.max)
        if hi / lo < 1e2:
            # lo * hi leaves the float range once efforts pass 1e+-154.
            center = math.sqrt(lo) * math.sqrt(hi)
            lo = max(center / 10.0, _SMALLEST)
            hi = min(center * 10.0, sys.float_info.max)
        curvature = classify_h(common, domain=(lo, hi))
        predicted = _PREDICTED_ORDERINGS.get(curvature.verdict)
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
        _RECOMMENDATION.get(curvature.verdict) if curvature is not None
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
            point = [float(by_size[k]) for k in sizes]
        else:
            point = list(entry)
            if len(point) != len(sizes):
                raise ValueError(f"prize vector {point} does not match sizes {sizes}")
            point = [float(v) for v in point]
        for k, v in zip(sizes, point):
            _check_prize(k, v)
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

