"""Run the benchmark over several seeds and record one BENCH trajectory entry.

    python3 perfbench/collect.py --label seed --seeds 1-10 --out perfbench/bench/BENCH_0_seed.json

Reads the command, run length, workloads and bounds from BENCHMARK.json at
the checkout root, runs every workload once per seed untraced and once traced
(one process at a time), and writes per-run values with their median,
quartiles and spread (interquartile range over median) for each metric. Two
things are flagged, and either makes the exit code 1: a spread wider than a
third of the metric's bound, since such a metric cannot tell a regression
from noise; and an `ok_frac` bound so loose that one failed operation in the
largest run would stay inside it.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    print(f"{workload:10s} seed {seed:3d} trace {trace}  {wall:6.1f} s  correct={result['correct']}",
          flush=True)
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    entry = {
        "label": args.label,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, {platform.platform()}",
        "python": platform.python_version(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    flagged = []
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = [run_once(bench, name, seed, 0) for seed in seeds]
        traced = run_once(bench, name, seeds[0], 1)
        end_to_end = {}
        for metric in bench["end_to_end"]:
            m = metric["name"]
            summary = summarize([r["metrics"][m]["value"] for r in runs])
            summary.update(unit=metric["unit"], bound=metric["bound"])
            end_to_end[m] = summary
            spread = summary.get("spread")
            if spread is not None and spread > metric["bound"] / 3:
                flagged.append(f"{name} {m}: spread {spread:.3f} > bound/3 {metric['bound'] / 3:.3f}")
            print(f"  {m:20s} median {summary['median']:.6g}  spread {spread}")
        attempted = [r["attempted"] for r in runs]
        ok_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "ok_frac")
        if 1 / max(attempted) <= ok_bound:
            flagged.append(f"{name} ok_frac: one failure in {max(attempted)} operations "
                           f"stays inside the bound {ok_bound}")
        entry["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": attempted,
            "wall_s": [round(r["wall_s"], 2) for r in runs + [traced]],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    for line in flagged:
        print("FLAGGED:", line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
