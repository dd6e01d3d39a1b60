"""Outside-in tracing of the library's public callables.

Each wrap point names a callable where the *calling* module looks it up, so
one function can be traced separately per caller: ``equilibrium.solve_increasing``
is the structured fixed point's outer root, ``rootfind.solve_increasing`` the
bisection inside ``invert_h``.  A span records name, start, end, parent span
and op; counts are kept at the same boundaries.  Root-finder wrappers also
wrap the ``g`` they are handed and count its evaluations.  A wrap point that
no longer exists is reported absent with count 0, so refactors of the library
do not break the benchmark.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# kind: "span" records a span and counts calls; "roots" also counts the
# evaluations of the function passed as first argument; "evals" only counts
# those evaluations; "count" only counts calls (class-level hot methods).
# A span marked top_only is skipped while a span of the same name is open,
# so the root nested inside a heterogeneous UE gap is not an outer root.
WRAP_POINTS = (
    # (module, attribute, name, kind)
    ("conflictnet.cli", "main", "cli.main", "span"),
    ("conflictnet.cli", "load_network", "io.load_network", "span"),
    ("conflictnet.cli", "check_semi_symmetry", "network.check_semi_symmetry", "span"),
    ("conflictnet.cli", "compare_regimes", "analysis.compare_regimes", "span"),
    ("conflictnet.cli", "neutrality_check", "analysis.neutrality_check", "span"),
    ("conflictnet.cli", "solve_de", "equilibrium.solve_de", "span"),
    ("conflictnet.cli", "solve_ue", "equilibrium.solve_ue", "span"),
    ("conflictnet.cli", "solve_nash_iterative", "general_solver.solve", "span"),
    ("conflictnet.cli", "solve_nash_ue_iterative", "general_solver.solve", "span"),
    ("conflictnet.sweep", "run_sweep", "sweep.run_sweep", "span"),
    ("conflictnet.sweep", "solve_de", "equilibrium.solve_de", "span"),
    ("conflictnet.sweep", "solve_ue", "equilibrium.solve_ue", "span"),
    ("conflictnet.analysis", "solve_de", "equilibrium.solve_de", "span"),
    ("conflictnet.analysis", "solve_ue", "equilibrium.solve_ue", "span"),
    ("conflictnet.analysis", "classify_h", "analysis.classify_h", "span"),
    ("conflictnet.equilibrium", "solve_increasing", "equilibrium.outer_root", "roots"),
    ("conflictnet.equilibrium", "invert_h", "rootfind.invert_h", "span"),
    ("conflictnet.rootfind", "solve_increasing", "rootfind.invert_h", "evals"),
    ("conflictnet.general_solver", "solve_nash_iterative", "general_solver.solve", "span"),
    ("conflictnet.general_solver", "solve_nash_ue_iterative", "general_solver.solve", "span"),
    ("conflictnet.general_solver", "brent_increasing", "rootfind.brent", "roots"),
    ("conflictnet.general_solver", "payoff", "network.payoff", "span"),
    ("conflictnet.functions", "PowerProduction.f", "functions.f", "count"),
    ("conflictnet.functions", "RatioProduction.f", "functions.f", "count"),
    ("conflictnet.functions", "CaraProduction.f", "functions.f", "count"),
    ("conflictnet.functions", "PiecewisePowerAffineProduction.f", "functions.f", "count"),
    ("conflictnet.functions", "PowerProduction.f_prime", "functions.f_prime", "count"),
    ("conflictnet.functions", "RatioProduction.f_prime", "functions.f_prime", "count"),
    ("conflictnet.functions", "CaraProduction.f_prime", "functions.f_prime", "count"),
    ("conflictnet.functions", "PiecewisePowerAffineProduction.f_prime", "functions.f_prime", "count"),
    ("conflictnet.functions", "PowerProduction.h", "functions.h", "count"),
    ("conflictnet.functions", "RatioProduction.h", "functions.h", "count"),
    ("conflictnet.functions", "CaraProduction.h", "functions.h", "count"),
    ("conflictnet.functions", "PiecewisePowerAffineProduction.h", "functions.h", "count"),
    ("conflictnet.functions", "PowerCost.c_prime", "functions.c_prime", "count"),
)
TOP_ONLY = {"equilibrium.outer_root"}
# Counts read off a span's return value.
TALLIES = {
    "sweep.run_sweep": ("sweep.rows", lambda written: written),
    "general_solver.solve": ("general_solver.iterations", lambda outcome: outcome.iterations),
}


def _resolve(module: str, attribute: str):
    """The object holding the attribute and its current value, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if last not in vars(owner):
        return None
    return owner, last, vars(owner)[last]


class Tracer:
    """Spans and counts collected while wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._stack = [-1]
        self._open: dict[int, int] = {}
        self.absent: list[str] = []
        self._patches = []
        for module, attribute, name, kind in WRAP_POINTS:
            found = _resolve(module, attribute)
            if found is None:
                self.absent.append(f"{module}.{attribute}")
                continue
            owner, attr, original = found
            self._patches.append((owner, attr, original, self._wrap(original, name, kind)))
        for _, _, name, kind in WRAP_POINTS:
            self.counts.setdefault(f"{name}.calls", 0)
            if kind in ("roots", "evals"):
                self.counts.setdefault(f"{name}.evals", 0)
        for key, _ in TALLIES.values():
            self.counts[key] = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, kind: str):
        counts = self.counts
        calls_key = f"{name}.calls"
        evals_key = f"{name}.evals"

        def counted(g):
            def g_counted(x):
                counts[evals_key] += 1
                return g(x)
            return g_counted

        if kind == "count":
            def count_wrapper(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)
            return count_wrapper
        if kind == "evals":
            def evals_wrapper(g, *args, **kwargs):
                return fn(counted(g), *args, **kwargs)
            return evals_wrapper

        nid = self._id(name)
        top_only = name in TOP_ONLY
        tally_key, tally = TALLIES.get(name, (None, None))
        stack, open_spans = self._stack, self._open
        start, end, parent, names, ops = self.start, self.end, self.parent, self.name, self.op

        def span_wrapper(*args, **kwargs):
            if top_only and open_spans.get(nid):
                return fn(*args, **kwargs)
            counts[calls_key] += 1
            if kind == "roots":
                args = (counted(args[0]),) + args[1:]
            index = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(self.op_id)
            stack.append(index)
            open_spans[nid] = open_spans.get(nid, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                start[index] = t0
                stack.pop()
                open_spans[nid] -= 1
            if tally is not None:
                counts[tally_key] += tally(result)
            return result

        return span_wrapper

    @contextmanager
    def installed(self, op_id: int):
        """Wrappers in place for one op; the originals are restored after."""
        self.op_id = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child span time."""
        duration = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        own = np.bincount(names, weights=duration - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent, op) to an npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
