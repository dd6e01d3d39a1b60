"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload prize-sweep --seed 1 --seconds 10 --trace 0

Run it from the repository root; it measures the library in ``src/``.  Each
measurement runs in fresh interpreters (``bench/worker.py``), so set-up time
and peak memory belong to the workload alone.  With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Every op's output is certified; failed ops are listed with their
inputs.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
every op's timing beside its input properties, failures) goes to
``.bench_out/`` under the repository root.

``bench/steady.py`` runs a workload on several seeds and reports each
metric's spread against its bound; ``bench/trajectory.json`` holds the
recorded medians, oldest first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORKER = ROOT / "bench" / "worker.py"
OUT = ROOT / ".bench_out"
# iterative-random runs on request but is not in BENCHMARK.json: on a shared
# 2-core machine its spread between runs went past the bounds.
WORKLOADS = ("prize-sweep", "iterative-random", "cli-oneshot")
# Set-up is sampled in this many extra fresh interpreters besides the
# measured one; setup_s is the median.  One start-up varies by about 30%.
SETUP_SAMPLES = 6
# Every child together must finish within this many seconds.
TIME_LIMIT = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker in a fresh interpreter and return its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(OUT), *extra, "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr}")
    out = json.loads(stdout.strip().splitlines()[-1])
    library = Path(out["library"]).resolve()
    if ROOT / "src" not in library.parents:
        raise BenchError(f"measured a library outside this checkout: {library}")
    return out


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def end_to_end(records: list[dict], setups: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    Set-up is wall time from spawn to the first op being ready, median of
    several fresh interpreters.  Op times are CPU seconds (see
    ``worker.execute``).  The rows of a sweep are written by one
    ``run_sweep`` call, so they share its time equally and the call is one
    latency sample; otherwise a sample is an op.
    """
    lat = sorted(r["seconds"] / r["units"] for r in records)
    n = len(lat)
    # Highest percentile with at least ten samples beyond it; the maximum
    # when a run has too few samples for one.
    tail_index = n - 11 if n > 10 else n - 1
    attempted = sum(r["units"] for r in records)
    failed = sum(r["failed_units"] for r in records)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "throughput_ops_s": attempted / sum(r["seconds"] for r in records),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "failed_frac": failed / attempted,
        "op_tail_percentile": 100.0 * (tail_index + 1) / n,
        "op_tail_samples_beyond": n - tail_index - 1,
        "latency_samples": n,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_cpu_samples_s": [s["setup_cpu_s"] for s in setups],
    }
    return metrics, detail


def per_layer(out: dict, names: list[str]) -> dict:
    """Per-op counts (first traced pass) and self times (all traced passes)."""
    block_ops = out["block_ops"]
    counts = out["counts"]
    traced_ops = block_ops * out["passes"]
    metrics = {}
    for name in names:
        if name.endswith(".evals_per_call"):
            stem = name[: -len(".evals_per_call")]
            calls = counts.get(f"{stem}.calls", 0)
            value = counts.get(f"{stem}.evals", 0) / calls if calls else 0.0
        elif name.endswith(".self_s"):
            value = out["self_s"].get(name[: -len(".self_s")], 0.0) / traced_ops
        elif name == "setup.import_s":
            value = out["import_s"]
        elif name == "setup.inputs_s":
            value = out["inputs_s"]
        elif name == "trace.overhead_ratio":
            value = out["untraced_s"] / out["traced_s"]
        else:
            value = counts.get(name, 0) / block_ops
        metrics[name] = value
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (ROOT / "src" / "conflictnet" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'conflictnet'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            out = spawn(args, deadline, "--spans", str(OUT / f"{stem}-spans.npz"))
            values = per_layer(out, list(units))
            detail = {"absent_wrap_points": out["absent"], "passes": out["passes"]}
        else:
            setups = [spawn(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES)]
            out = spawn(args, deadline)
            values, detail = end_to_end(out["records"], setups + [out], out["peak_rss_mb"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = out["records"]
    attempted = sum(r["units"] for r in records)
    failed = sum(r["failed_units"] for r in records)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    env = environment(args)
    report = {"environment": env, "metrics": metrics, "detail": detail,
              "attempted": attempted, "failed": failed, "records": records}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"{'environment':36s} {json.dumps(env)}")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    for key, value in detail.items():
        print(f"{key:36s} {value}")
    print(f"{'failed ops':36s} {failed} of {attempted}")
    for r in records:
        if r["failed_units"]:
            print(f"FAILED op {r['index']}: input={json.dumps(r['input'])} "
                  f"problems={r['problems']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
