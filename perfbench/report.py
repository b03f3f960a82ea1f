"""Run the benchmark over several seeds and print every metric's spread.

For each workload and seed this runs ``run.py`` in a fresh process, one
after the other, and then prints every metric with its name, unit and
workload, plus the median, the quartiles and the quartile spread as a share
of the median, next to the bound that BENCHMARK.json fixes. The header
records the Python and numpy versions, the CPU count and the CPU model.

Usage:
    python3 perfbench/report.py --seeds 0-9
    python3 perfbench/report.py --workloads parity-batch --seeds 1,2,3 --trace 1
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> str:
    try:
        import numpy

        np_version = numpy.__version__
    except ImportError:
        np_version = "missing"
    return (f"python {platform.python_version()}  numpy {np_version}"
            f"  nproc {len(os.sched_getaffinity(0))}  cpu {_cpu_model()}")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(environment())
    print(f"closed loop, 1 process, threads=1, {args.seconds} s per run, trace={args.trace}")
    print(f"{'workload':<20} {'metric':<32} {'unit':<6} {'median':>12} {'q1':>12}"
          f" {'q3':>12} {'spread':>7} {'bound':>6}  runs")
    worst = 0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in _seeds(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, worst = "  OVER", 1
            print(f"{workload:<20} {name:<32} {first['unit']:<6} {med:12.4f} {q1:12.4f}"
                  f" {q3:12.4f} {spread:7.3f} {bound if bound is not None else '-':>6}"
                  f"  {len(runs)}{flag}")
        print(f"{workload:<20} {'failed_frac':<32} {'':<6} {failed / attempted:12.4f}"
              f"   ({failed} of {attempted} ops)")
    return worst


if __name__ == "__main__":
    sys.exit(main())
