"""Check that the benchmark is steady, and record a baseline.

    python3 bench/prove.py --workload grid-churn --seeds 5
    python3 bench/prove.py --seeds 10 --record        # all workloads, plus traced runs

Runs ``bench/run.py`` once per seed (seeds 1..N) for each workload, one run at
a time, and prints for each end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, against the metric's bound in BENCHMARK.json. A spread
of a third of the bound or more is flagged. ``--record`` also makes one traced
run per workload and merges everything into ``bench/baseline.json``, whose
``reference_digests`` the benchmark compares each run's output digest with.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = BENCH / "baseline.json"


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / f"{workload}-{seed}" / "result.json").read_text())
    print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
          f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
    return result, detail


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        digests, inputs = {}, {}
        for seed in range(1, args.seeds + 1):
            result, detail = run(workload, seed, 0)
            steady &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            digests[str(seed)] = detail["output_sha256"]
            inputs[str(seed)] = detail["inputs"]
        table = {name: spread(v) for name, v in values.items()}
        print(f"\n{workload}: {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, s in table.items():
            flag = "" if s["iqr_share"] < bounds[name] / 3 else "  <- not below a third of bound"
            if name != "setup_s" and s["iqr_share"] > bounds[name]:
                steady = False
                flag = "  <- OVER BOUND"
            print(f"  {name:32s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['iqr_share']:8.4f} {bounds[name]:6.2f}{flag}")
        if args.record:
            _, traced = run(workload, 1, 1)
            baseline.setdefault("end_to_end", {})[workload] = table
            baseline.setdefault("reference_digests", {})[workload] = digests
            baseline.setdefault("inputs", {})[workload] = inputs
            baseline.setdefault("per_layer", {})[workload] = {
                "seed": 1,
                "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            }
    if args.record:
        baseline["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "run_seconds": SPEC["run_seconds"],
            "seeds": args.seeds,
        }
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
