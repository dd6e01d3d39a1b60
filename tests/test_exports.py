"""Every name a module exports in ``__all__`` exists, and so does every
callable the benchmark tracer wraps, apart from its known stale entries."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import conflictnet

MODULES = ["conflictnet"] + sorted(
    f"conflictnet.{info.name}" for info in pkgutil.iter_modules(conflictnet.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_wrap_points_resolve_except_the_known_stale_ones():
    # The tracer reports a wrap point it cannot resolve as absent and reads
    # its metrics as 0, so a rename in the library would zero them silently.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert sorted(tracing.Tracer().absent) == [
        "conflictnet.analysis.classify_h",
        "conflictnet.equilibrium.invert_h",
        "conflictnet.equilibrium.solve_increasing",
        "conflictnet.rootfind.solve_increasing",
        "conflictnet.sweep.solve_de",
        "conflictnet.sweep.solve_ue",
    ]
