"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/collect.py --runs 10 --first-seed 1 [--workloads a b]
                                 [--trace 0|1] [--out perfbench/baseline.json]

Each run is a separate `run.py` process with its own seed. For every metric
the summary gives the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median; for end-to-end metrics it also gives the
metric's bound from BENCHMARK.json. With --out the summary is written as
JSON together with a description of the machine and every run's printed
lines (its samples, measured seconds and host-speed factor).
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": "OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=MKL_NUM_THREADS=1 "
                   "(set by run.py); one caller",
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    result["exit"] = done.returncode
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values),
            "values": values}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {}
    for name in names:
        runs = [run_once(name, args.first_seed + i, spec["run_seconds"], args.trace)
                for i in range(args.runs)]
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            metrics[metric] = summarise(values) if len(values) > 1 else {"median": values[0]}
            metrics[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
            if metric in bounds:
                metrics[metric]["bound"] = bounds[metric]
        summary[name] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "all_correct": all(r["correct"] and r["exit"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "max_elapsed_s": max(r["elapsed_s"] for r in runs),
            "logs": {args.first_seed + i: r["log"] for i, r in enumerate(runs)},
            "metrics": metrics,
        }
        print(f"{name}: correct={summary[name]['all_correct']} "
              f"max_elapsed={summary[name]['max_elapsed_s']:.1f}s", flush=True)
        for metric, s in metrics.items():
            spread = s.get("spread")
            flag = ""
            if metric in bounds and spread is not None:
                flag = "ok" if spread < bounds[metric] / 3 else "WIDE"
            print(f"  {metric:28s} median {s['median']:14.6g}  spread "
                  f"{spread if spread is not None else float('nan'):7.4f} {flag}",
                  flush=True)
    if args.out:
        doc = {"machine": machine(), "trace": args.trace, "runs": args.runs,
               "run_seconds": spec["run_seconds"], "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
