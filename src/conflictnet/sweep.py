"""Parameter sweep harness emitting one CSV row per grid point.

A sweep spec names a base semi-symmetric structure, one or more parameter
axes (per-size prizes ``v<k>``, power exponents ``r`` or ``r<k>``, cost
parameters ``cost_p`` / ``cost_kappa``), and per-axis ranges.  Grid points
are enumerated lexicographically in axis order, each filled in as it is
solved in-process to both regimes' totals (through
``equilibrium._solve_totals``, with the DE/UE gap of ``analysis``), and
written in that order.  A point is not a structure: it is the base's
``(k, d_k, f_k)`` per size, prizes and cost with its swept values
replaced.  A `SweepAxis` checks its own values: a string name, bounds
that are finite numbers, not bools, and an ``int`` of steps.  The axis
names and the grid's ends are validated before the output is touched, the
swept exponents and cost parameters by their constructors and the prizes
by the structure's prize rule; every value between them is then valid
too.  Every point is solved on its own from the solvers' closed-form
start, so a row does not depend on the rows before it.
Rows go through the output file's write buffer, with no flush per row; an
exception or Ctrl-C closes the file, which writes every completed row, and a
hard kill loses at most one buffer of rows (a few kilobytes).  Existing rows
in the output file are skipped, so an interrupted sweep resumes where it
stopped; a rerun first drops an unterminated last line, a row cut
mid-write, so the resumed output is byte-identical to an uninterrupted one.
A rerun re-solves an output's first row and refuses, leaving it untouched,
an output written for another base.  An output that cannot seek, such as a
pipe, holds no rows to resume and is only appended to.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

from .analysis import _relative_gap
from .equilibrium import _solve_totals
from .functions import PowerCost, PowerProduction
from .network import SemiSymmetricStructure, _check_prize

__all__ = ["SweepAxis", "SweepSpec", "run_sweep", "DEFAULT_MAX_GRID"]

DEFAULT_MAX_GRID = 1_000_000

_RESULT_COLUMNS = ("X_de", "X_ue", "payoff_de", "payoff_ue", "gap")

# Relative difference between a stored first row's totals and a
# re-solve beyond which the output belongs to another base.
_BASE_TOL = 1e-9


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter with an inclusive linear range of ``steps``
    points (an ``int``, at least 1)."""

    param: str
    minimum: float
    maximum: float
    steps: int

    def __post_init__(self):
        if not isinstance(self.param, str):
            raise ValueError(f"axis parameter must be a string, got {self.param!r}")
        bounds = (self.minimum, self.maximum)
        if not all(isinstance(bound, Real) and not isinstance(bound, bool) for bound in bounds):
            raise ValueError(f"axis {self.param!r} range must be numbers, got {bounds!r}")
        # Compared, not converted: float() of an int past the float range raises.
        if not all(abs(bound) <= sys.float_info.max for bound in bounds):
            raise ValueError(f"axis {self.param!r} range must be finite")
        object.__setattr__(self, "minimum", float(self.minimum))
        object.__setattr__(self, "maximum", float(self.maximum))
        if isinstance(self.steps, bool) or not isinstance(self.steps, int):
            raise ValueError(f"axis {self.param!r} steps must be an int, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError(f"axis {self.param!r} needs at least 1 step")
        if self.steps > 1 and not self.maximum > self.minimum:
            raise ValueError(f"axis {self.param!r} range is empty")

    def values(self) -> list[float]:
        """``minimum + i * (maximum - minimum) / (steps - 1)`` for each ``i``,
        the last one exactly ``maximum``: ``numpy.linspace``'s floats, by its
        arithmetic, which scales each fraction of the range where the step
        underflows to 0."""
        lo, div = self.minimum, self.steps - 1
        if not div:
            return [lo]
        delta = self.maximum - lo
        step = delta / div
        values = [i * step + lo if step else i / div * delta + lo for i in range(div)]
        return values + [self.maximum]


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


def _axis_target(base: SemiSymmetricStructure, param: str):
    """Where axis ``param`` writes its value: ``("v", i)`` for the prize of
    the i-th size, ``("r", sizes)`` for the power exponent of those sizes,
    or ``(param, ())`` for a cost parameter."""
    if param in ("cost_p", "cost_kappa"):
        return param, ()
    if param == "r":
        return "r", base.sizes
    if param[:1] in ("v", "r") and param[1:].isdigit():
        k = int(param[1:])
        if k not in base.sizes:
            raise ValueError(f"sweep parameter {param!r}: no size-{k} battles")
        return ("v", base.sizes.index(k)) if param[0] == "v" else ("r", (k,))
    raise ValueError(f"unknown sweep parameter {param!r}")


class _Template:
    """The points of a sweep over ``base``: its ``(k, d_k, f_k)`` per size,
    total degree, cost and prizes, filled in per point with the swept
    values only.  Only :meth:`check` validates; every other point lies
    between two checked ones, and every parameter's constraint is an
    interval."""

    def __init__(self, base: SemiSymmetricStructure, params: tuple[str, ...]):
        self.targets = tuple(_axis_target(base, param) for param in params)
        self.sizes, self.count, self.cost = base.size_classes, base.total_degree, base.cost
        self.prizes = [base.prizes[k] for k in base.sizes]

    def point(self, values: tuple[float, ...]):
        """``(k, d_k, f_k)`` per size, prizes and cost with every swept
        parameter set, in axis order."""
        sizes, prizes, cost = self.sizes, self.prizes.copy(), self.cost
        for (kind, where), value in zip(self.targets, values):
            if kind == "v":
                prizes[where] = value
            elif kind == "r":
                sizes = tuple(
                    (k, d, PowerProduction(A=pf.A if isinstance(pf, PowerProduction) else 1.0,
                                           r=value))
                    if k in where else (k, d, pf)
                    for k, d, pf in sizes
                )
            elif kind == "cost_p":
                cost = PowerCost(kappa=cost.kappa, p=value)
            else:
                cost = PowerCost(kappa=value, p=cost.p)
        return sizes, prizes, cost

    def check(self, values: tuple[float, ...]) -> None:
        """Raise as the structure at ``values`` does if a value is invalid:
        :meth:`point` builds the swept productions and cost, which check
        themselves, and only the prizes are left."""
        sizes, prizes, _ = self.point(values)
        for (k, _, _), v in zip(sizes, prizes):
            _check_prize(k, v)

    def solve(self, values: tuple[float, ...]) -> tuple[float, ...]:
        """The row's results at ``values``, in ``_RESULT_COLUMNS`` order."""
        sizes, prizes, cost = self.point(values)
        x_de, x_ue = _solve_totals(sizes, prizes, self.count, cost)
        # SemiSymmetricStructure.prize_term, summed in its order.
        prize_term = sum(d * v / k for (k, d, _), v in zip(sizes, prizes))
        return (x_de, x_ue, prize_term - cost.c(x_de), prize_term - cost.c(x_ue),
                _relative_gap(x_de, x_ue))


def _line(cells) -> str:
    """One CSV line: the bytes ``csv.writer`` writes for these cells, none
    of which holds a comma, a quote or a line break."""
    return ",".join(cells) + "\r\n"


def _check_base(path: Path, template: _Template, params: tuple[str, ...], row: dict) -> None:
    """Raise unless a solve of ``row``'s point on the template's base gives
    back the row's totals, as it does for the row that opens an output."""
    try:
        values = tuple(float(row[p]) for p in params)
        stored = (float(row["X_de"]), float(row["X_ue"]))
        readable = all(math.isfinite(v) for v in values)
    except (TypeError, ValueError):
        readable = False
    if not readable:
        raise ValueError(f"existing output {path}: cannot read its first row")
    template.check(values)
    totals = template.solve(values)[:2]
    if not all(
        math.isclose(s, x, rel_tol=_BASE_TOL, abs_tol=0.0) for s, x in zip(stored, totals)
    ):
        raise ValueError(
            f"existing output {path} was written for another base (network, "
            f"production, cost or prizes); give a new output path"
        )


def _existing_rows(
    path: Path, template: _Template, params: tuple[str, ...], header: str
) -> tuple[set[tuple[str, ...]], int, int]:
    """``(keys, kept, cut)`` of the output at ``path``: the axis cells of its
    rows, the byte length of its whole lines, and the byte length of an
    unterminated last line, which was cut mid-write and is neither a key nor
    kept.  A cut header counts as an empty output.  Raises, having written
    nothing, when the output lacks a column or was written for another base."""
    kept, tail = 0, b""

    def whole_lines(fh):
        nonlocal kept, tail
        for raw in fh:
            if not raw.endswith(b"\n"):
                tail = raw
                return
            kept += len(raw)
            yield raw.decode("utf-8")

    keys = set()
    with open(path, "rb") as fh:
        reader = csv.DictReader(whole_lines(fh))
        try:
            if reader.fieldnames is None and header.encode().startswith(tail):
                return keys, 0, len(tail)
            if reader.fieldnames is None or any(
                c not in reader.fieldnames for c in params + _RESULT_COLUMNS
            ):
                raise ValueError(f"existing output {path} lacks a column of the sweep's rows")
            for row in reader:
                if not keys:
                    _check_base(path, template, params, row)
                keys.add(tuple(row[p] for p in params))
            if not keys and tail:
                # A first row with all its cells but no line break may be
                # another base's; one cut in an earlier cell has fewer cells.
                cells = next(csv.reader([tail.decode("utf-8", "replace")]), [])
                if len(cells) == len(reader.fieldnames):
                    _check_base(path, template, params, dict(zip(reader.fieldnames, cells)))
        except csv.Error as exc:
            # A line break other than \r\n inside a line, for one.
            raise ValueError(f"existing output {path} is not a sweep's CSV: {exc}") from None
    return keys, kept, len(tail)


def run_sweep(spec: SweepSpec, output) -> int:
    """Execute a sweep, appending missing rows to ``output``.

    Returns the number of rows written this run.  Row order is the
    lexicographic product of the axes in spec order.
    """
    params = tuple(axis.param for axis in spec.axes)
    axis_values = [axis.values() for axis in spec.axes]
    # Every parameter's constraint is an interval and every axis value lies
    # between its ends, so the template's names and the first and the last
    # point check the whole grid before the output is touched.
    template = _Template(spec.base, params)
    for end in (0, -1):
        template.check(tuple(v[end] for v in axis_values))
    path = Path(output)
    header = _line(params + _RESULT_COLUMNS)

    # Each axis value is formatted once; its text is both the resume key and
    # the row's cell.
    axis_cells = [[(v, repr(v)) for v in values] for values in axis_values]
    written = 0
    with open(path, "ab") as fh:
        # Opened for appending, a file stands at its end: a nonzero position
        # is an earlier run's output.  A pipe or a terminal holds none.
        done, kept, cut = (
            _existing_rows(path, template, params, header)
            if fh.seekable() and fh.tell() else (set(), 0, 0)
        )
        if cut:
            fh.truncate(kept)
        if not kept:
            fh.write(header.encode())
        for combo in itertools.product(*axis_cells):
            values, cells = zip(*combo)
            if cells in done:
                continue
            results = template.solve(values)
            fh.write(_line(cells + tuple(map(repr, results))).encode())
            written += 1
    return written
