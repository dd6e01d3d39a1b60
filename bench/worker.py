"""One benchmark measurement in a fresh interpreter.

Set-up runs from interpreter start to the first op being ready: start-up,
``import conflictnet`` and input generation.  It is measured as wall time
from ``--spawned-at``, the wall-clock time at which ``run.py`` spawned this
process, and as the process's CPU time at that point.  Prints one JSON
object on stdout.

Modes:
  --setup-only  stop once the first op is ready (a set-up sample)
  --trace 0     closed loop of ops for --seconds, untraced
  --trace 1     pairs of (traced, untraced) passes over a fixed block of
                ops until --seconds have passed; counts come from the first
                traced pass, so they repeat exactly for a given seed
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def execute(op, scratch: Path):
    """Run one op in an empty scratch directory; return its record.

    An op is timed in CPU seconds: the library computes in one thread, and on
    a shared machine wall time adds the time the scheduler gives to other
    tenants.  Wall time is kept in the record beside it.
    """
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    error = None
    result = None
    wall0 = time.perf_counter()
    cpu0 = cpu_seconds()
    try:
        result = op.run(scratch)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = cpu_seconds() - cpu0
    wall = time.perf_counter() - wall0
    if error is None:
        try:
            problems = op.check(result, scratch)
        except Exception as exc:  # an unreadable output fails the op
            problems = [(0, f"certificate raised {type(exc).__name__}: {exc}")]
        props = op.result_props(result)
    else:
        problems = [(unit, error) for unit in range(op.units)]
        props = {}
    return {
        "index": op.index,
        "units": op.units,
        "seconds": elapsed,
        "wall_s": wall,
        "failed_units": len({unit for unit, _ in problems}),
        "problems": [msg for _, msg in problems],
        "input": op.props,
        **props,
    }


def closed_loop(workload, first, seconds: float, scratch: Path) -> list[dict]:
    records = []
    deadline = time.perf_counter() + seconds
    op = first
    while True:
        records.append(execute(op, scratch))
        if time.perf_counter() >= deadline:
            return records
        op = workload.op(op.index + 1)


def traced_passes(workload, block, seconds: float, scratch: Path, spans: str | None) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    counts = None
    traced_s = untraced_s = 0.0
    passes = 0
    records = []
    while passes == 0 or time.perf_counter() < deadline:
        for op in block:
            with tracer.installed(op.index):
                record = execute(op, scratch)
            traced_s += record["seconds"]
            records.append(record)
        if counts is None:
            counts = dict(tracer.counts)
        for op in block:
            record = execute(op, scratch)
            untraced_s += record["seconds"]
            records.append(record)
        passes += 1
    if spans:
        tracer.save(spans)
    return {
        "counts": counts,
        "self_s": tracer.self_times(),
        "passes": passes,
        "block_ops": sum(op.units for op in block),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "absent": tracer.absent,
        "records": records,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import conflictnet

    import_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    # The benchmark's own modules load after the library, so that import_s
    # is the library's import alone.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import Workload

    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        workload = Workload(args.workload, args.seed, workdir)
        workload.setup()
        block = [workload.op(i) for i in range(workload.trace_block if args.trace else 1)]
        inputs_s = time.perf_counter() - t1
        setup = {
            "setup_s": time.time() - args.spawned_at,
            "setup_cpu_s": cpu_seconds(),
            "import_s": import_s,
            "inputs_s": inputs_s,
            "library": conflictnet.__file__,
        }
        if args.setup_only:
            out = setup
        elif args.trace:
            out = dict(setup, **traced_passes(workload, block, args.seconds,
                                                workdir / "op", args.spans))
        else:
            out = dict(setup, records=closed_loop(workload, block[0], args.seconds,
                                                  workdir / "op"))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
