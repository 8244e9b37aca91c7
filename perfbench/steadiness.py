"""Steadiness report: run the benchmark repeatedly and summarise every metric.

    python3 perfbench/steadiness.py [--out perfbench/baseline.json]

For each workload of BENCHMARK.json it runs `run.py --trace 0` once for each
of SEEDS, one run at a time, and prints each end-to-end metric's median,
first and third quartile (statistics.quantiles with n=4) and spread,
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json; a spread
above a third of its bound is flagged. The bounds are set from this report.
It then makes two traced runs on the first seed and reports every per-layer
count that differs between them (there should be none). The environment
(nproc, CPU model, Python, numpy, scipy and the BLAS thread count) is
recorded with the results; --out writes them as JSON.
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

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import BLAS_THREADS
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def run_once(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"environment": environment(), "seeds": SEEDS,
              "run_seconds": BENCH["run_seconds"], "workloads": {}}
    print(json.dumps(report["environment"]))
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in SEEDS:
            res = run_once(workload, seed, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}"
                  f"/{res['attempted']} in {res['elapsed_s']:.1f} s", flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "run_elapsed_s": [r["elapsed_s"] for r in runs], "metrics": {}}
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = stats
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  <-- wide"
            print(f"  {name:16s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}  "
                  f"bound {bounds[name]}{flag}", flush=True)
        first, second = (run_once(workload, SEEDS[0], 1) for _ in range(2))
        counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
        differ = [n for n in counts
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        entry["per_layer"] = {n: v["value"] for n, v in first["metrics"].items()}
        entry["per_layer_counts_differ"] = differ
        entry["traced_correct"] = first["correct"] and second["correct"]
        print(f"  traced twice, seed {SEEDS[0]}: correct={entry['traced_correct']}, "
              f"counts that differ: {differ or 'none'}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
