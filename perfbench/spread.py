#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's run-to-run spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads bundled,merged --seeds 1-10 \\
        --out .perfbench_work/spread.json

Each run lasts ``run_seconds`` from BENCHMARK.json, passed as ``--seconds``
the way the benchmark is invoked. For every workload and end-to-end metric
it prints the median of the
per-run values, their quartiles, and the distance between the quartiles
as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs go one at a time, seeds in the outer loop, so that slow phases of the
host spread over all workloads alike.
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


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    failed = 0
    for seed in _seeds(args.seeds):
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode not in (0, 1):
                raise SystemExit(f"seed {seed} {name}: exit {proc.returncode}\n"
                                 f"{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (proc.returncode != 0)
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"seed {seed} {name}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()),
                flush=True)

    summary = {}
    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name in names:
        summary[name] = {}
        for metric, series in values[name].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            summary[name][metric] = {"values": series, "median": median,
                                     "q1": q1, "q3": q3, "iqr_share": share,
                                     "bound": bounds[metric]}
            mark = "" if metric == "setup_s" or share < bounds[metric] / 3 else \
                "  above a third of the bound"
            print(f"{name:14} {metric:12} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{share:8.3f} {bounds[metric]:6.2f}{mark}")
    if args.out:
        args.out.write_text(json.dumps({
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
            "seconds": spec["run_seconds"], "seeds": args.seeds, "failed": failed,
            "metrics": summary}, indent=1) + "\n", encoding="utf-8")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
