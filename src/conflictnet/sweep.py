"""Parameter sweep harness emitting one CSV row per grid point.

A sweep spec names a base semi-symmetric structure, one or more parameter
axes (per-size prizes ``v<k>``, power exponents ``r`` or ``r<k>``, cost
parameters ``cost_p`` / ``cost_kappa``), and per-axis ranges.  Grid points
are enumerated lexicographically in axis order, each built as it is solved
in-process to both regimes' totals (through ``equilibrium._solve_totals``,
with the DE/UE gap of ``analysis``), and written in that order.  Every
point is solved on its own from the solvers' closed-form start, so a row
does not depend on the rows before it.  Existing rows in the output file
are skipped, so an interrupted sweep resumes where it stopped, and the
resumed output is byte-identical to an uninterrupted one; rows are flushed
as they are written so an interrupt preserves everything completed.  A rerun re-solves an
output's first row and refuses an output written for another base.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import _relative_gap
from .equilibrium import _solve_totals, _symmetric_payoff
from .functions import PowerCost, PowerProduction
from .network import SemiSymmetricStructure

__all__ = ["SweepAxis", "SweepSpec", "run_sweep", "DEFAULT_MAX_GRID"]

DEFAULT_MAX_GRID = 1_000_000

_RESULT_COLUMNS = ("X_de", "X_ue", "payoff_de", "payoff_ue", "gap")

# Relative difference between a stored first row's totals and a
# re-solve beyond which the output belongs to another base.
_BASE_TOL = 1e-9


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter with an inclusive linear range."""

    param: str
    minimum: float
    maximum: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValueError(f"axis {self.param!r} range must be finite")
        if self.steps < 1:
            raise ValueError(f"axis {self.param!r} needs at least 1 step")
        if self.steps > 1 and not self.maximum > self.minimum:
            raise ValueError(f"axis {self.param!r} range is empty")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Base structure plus axes; see module docstring for axis names."""

    base: SemiSymmetricStructure
    axes: tuple[SweepAxis, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("sweep needs at least one axis")
        params = [axis.param for axis in self.axes]
        for i, param in enumerate(params):
            if param in params[:i]:
                raise ValueError(
                    f"bad sweep axis #{i}: parameter {param!r} is already "
                    f"axis #{params.index(param)}"
                )
        if self.grid_size > DEFAULT_MAX_GRID:
            raise ValueError(f"sweep grid has {self.grid_size} points, cap is {DEFAULT_MAX_GRID}")

    @property
    def grid_size(self) -> int:
        total = 1
        for axis in self.axes:
            total *= axis.steps
        return total


def _point_structure(
    base: SemiSymmetricStructure, params: tuple[str, ...], values: tuple[float, ...]
) -> SemiSymmetricStructure:
    """``base`` with every swept parameter set, in axis order."""
    prizes = dict(base.prizes)
    productions = dict(base.productions)
    cost = base.cost
    for param, value in zip(params, values):
        if param.startswith("v") and param[1:].isdigit():
            k = int(param[1:])
            if k not in prizes:
                raise ValueError(f"sweep parameter {param!r}: no size-{k} battles")
            prizes[k] = value
        elif param == "r" or (param.startswith("r") and param[1:].isdigit()):
            sizes = base.sizes if param == "r" else (int(param[1:]),)
            for k in sizes:
                if k not in productions:
                    raise ValueError(f"sweep parameter {param!r}: no size-{k} battles")
                pf = base.productions[k]
                scale = pf.A if isinstance(pf, PowerProduction) else 1.0
                productions[k] = PowerProduction(A=scale, r=value)
        elif param == "cost_p":
            cost = PowerCost(kappa=cost.kappa, p=value)
        elif param == "cost_kappa":
            cost = PowerCost(kappa=value, p=cost.p)
        else:
            raise ValueError(f"unknown sweep parameter {param!r}")
    return SemiSymmetricStructure(
        sizes=base.sizes,
        degrees=dict(base.degrees),
        prizes=prizes,
        productions=productions,
        cost=cost,
    )


def _format_cell(value: float) -> str:
    return repr(float(value))


def _check_base(
    path: Path, base: SemiSymmetricStructure, params: tuple[str, ...], row: dict
) -> None:
    """Raise unless a solve of ``row``'s point on ``base`` gives back the
    row's totals, as it does for the row that opens an output."""
    try:
        values = tuple(float(row[p]) for p in params)
        stored = (float(row["X_de"]), float(row["X_ue"]))
        readable = all(math.isfinite(v) for v in values)
    except (TypeError, ValueError):
        readable = False
    if not readable:
        raise ValueError(f"existing output {path}: cannot read its first row")
    totals = _solve_totals(_point_structure(base, params, values))
    if not all(
        math.isclose(s, x, rel_tol=_BASE_TOL, abs_tol=0.0) for s, x in zip(stored, totals)
    ):
        raise ValueError(
            f"existing output {path} was written for another base (network, "
            f"production, cost or prizes); give a new output path"
        )


def _existing_keys(
    path: Path, base: SemiSymmetricStructure, params: tuple[str, ...]
) -> set[tuple[str, ...]]:
    if not path.exists() or path.stat().st_size == 0:
        return set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(
            c not in reader.fieldnames for c in params + _RESULT_COLUMNS
        ):
            raise ValueError(
                f"existing output {path} lacks a column of the sweep's rows"
            )
        keys = set()
        for row in reader:
            if not keys:
                _check_base(path, base, params, row)
            keys.add(tuple(row[p] for p in params))
        return keys


def run_sweep(spec: SweepSpec, output) -> int:
    """Execute a sweep, appending missing rows to ``output``.

    Returns the number of rows written this run.  Row order is the
    lexicographic product of the axes in spec order.
    """
    params = tuple(axis.param for axis in spec.axes)
    axis_values = [axis.values() for axis in spec.axes]
    # Every parameter's constraint is an interval and every axis value lies
    # between its ends, so building the first and the last point checks the
    # names, sizes and values of the whole grid before the output is touched.
    for end in (0, -1):
        _point_structure(spec.base, params, tuple(float(v[end]) for v in axis_values))
    path = Path(output)
    done = _existing_keys(path, spec.base, params)
    header_needed = not path.exists() or path.stat().st_size == 0

    # Each axis value is formatted once; its text is both the resume key and
    # the row's cell.
    axis_cells = [[(float(v), _format_cell(v)) for v in values] for values in axis_values]
    written = 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header_needed:
            writer.writerow(params + _RESULT_COLUMNS)
            fh.flush()
        for combo in itertools.product(*axis_cells):
            values, cells = zip(*combo)
            if cells in done:
                continue
            point = _point_structure(spec.base, params, values)
            x_de, x_ue = _solve_totals(point)
            payoffs = (_symmetric_payoff(point, x_de), _symmetric_payoff(point, x_ue))
            results = (x_de, x_ue, *payoffs, _relative_gap(x_de, x_ue))
            writer.writerow(cells + tuple(_format_cell(v) for v in results))
            fh.flush()
            written += 1
    return written
