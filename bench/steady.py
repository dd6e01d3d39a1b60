"""Steadiness report: run one workload on several seeds and compare each
end-to-end metric's spread with the bound ``BENCHMARK.json`` gives it.

    python3 bench/steady.py --workload prize-sweep --runs 10 [--first-seed 1]

The spread is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median.
Each run is a separate ``bench/run.py`` process with its own seed.  The
values and quartiles also go to ``.bench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="defaults to run_seconds")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed = attempted = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={result['metrics'][name]['value']:.6g}" for name in values), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s, "
          f"{failed} of {attempted} ops failed")
    print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    summary = {}
    for m in spec["end_to_end"]:
        q1, median, q3 = statistics.quantiles(values[m["name"]], n=4)
        spread = (q3 - q1) / median
        summary[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                              "unit": m["unit"], "values": values[m["name"]]}
        verdict = "ok" if spread <= m["bound"] / 3 else ("WIDE" if spread <= m["bound"] else "OVER")
        print(f"{m['name']:20s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{m['bound']:6.2f} {m['unit']} {verdict}")
    (ROOT / ".bench_out" / f"steady-{args.workload}.json").write_text(json.dumps({
        "workload": args.workload, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "seconds": seconds, "attempted": attempted, "failed": failed, "metrics": summary,
    }, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
