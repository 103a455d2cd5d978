"""Run the benchmark over ten seeds and summarize each metric.

    python3 bench/collect.py --out bench/BENCH_1.json

For every workload it runs `run_bench.py` once per seed (1 to 10) with
--trace 0 and BENCHMARK.json's run_seconds, then once with --trace 1 on
seed 1. It writes the median, quartiles and spread (interquartile range
over median, as statistics.quantiles(n=4) gives them) of every metric,
with the per-seed values and the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import benchlib
from run_bench import CONTRACT, ROOT, WORK, WORKLOADS

# ten seeds, as a steadiness check of the contract takes them
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(ROOT, "bench", "run_bench.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record = os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{trace}.json")
    return benchlib.read_json(record)


def summarize(records: list[dict]) -> dict:
    out = {}
    for name, metric in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        present = [v for v in values if v is not None]
        entry = {"unit": metric["unit"], "values": values}
        if len(present) >= 2:
            q1, q2, q3 = benchlib.quartiles(present)
            entry.update(median=q2, q1=q1, q3=q3, spread=benchlib.spread(present))
        elif present:
            entry["median"] = present[0]
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = benchlib.read_json(CONTRACT)["run_seconds"]
    summary = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        records = []
        for seed in SEEDS:
            record = run_once(workload, seed, seconds, 0)
            records.append(record)
            metrics = {k: v["value"] for k, v in record["metrics"].items()}
            print(workload, seed, record["correct"], record["failed"], metrics, flush=True)
        entry = {
            "correct": all(r["correct"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "end_to_end": summarize(records),
        }
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["self_time_s"] = traced["self_time_s"]
        summary["workloads"][workload] = entry
        summary.setdefault("environment", records[0]["environment"])
        for name, stats in entry["end_to_end"].items():
            if "spread" in stats:
                print(f"  {workload:14s} {name:16s} median {stats['median']:.6g} "
                      f"spread {stats['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
