#!/usr/bin/env python3
"""Repeated runs of one workload: spread per metric, exact-repeat check.

    python3 perfbench/repeat.py --workload map-cold --seeds 1-10
    python3 perfbench/repeat.py --workload query-range --seeds 7 --runs 3 \
        --trace both

Runs perfbench/run.py once per (seed, run, trace mode) from the root of a
checkout and prints, per metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. End-to-end metrics are marked
when the spread exceeds a third of their BENCHMARK.json bound. The
ungated latency_p99_ms header line is listed with its spread, unbounded.

Counters that must repeat exactly for one seed (DETERMINISTIC below) are
compared across the runs of each seed; any difference, any wrong answer,
or any failed run makes the tool exit 1. serve-zipf's solve, coalesce and
eviction counts depend on timing and are only reported with their spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PAGES = ["range_pages_mean", "range_pages_max", "page_io_per_query"]
DETERMINISTIC = {
    "map-cold": PAGES + [
        "graph.components", "eigen.matvecs", "eigen.restarts",
        "eigen.spmm_calls", "eigen.reorth_panels", "core.solves",
        "core.cache_hit_rate", "core.coalesced", "core.evictions",
        "core.degraded_orders"],
    "serve-zipf": PAGES + ["core.degraded_orders"],
    "query-range": PAGES + [
        "query.scanned_per_match", "query.range_pages_mean.grid64x64",
        "query.range_pages_max.grid64x64", "query.range_pages_mean.clusters2k",
        "query.range_pages_max.clusters2k", "index.rtree_nodes_per_query",
        "index.btree_nodes_per_query", "storage.pool_hit_rate",
        "storage.page_runs_per_query", "core.solves", "core.cache_hit_rate",
        "core.degraded_orders"],
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    """One run.py invocation; returns (result dict or None, wall seconds)."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, wall
    result = json.loads(lines[-1])
    # "# ungated: latency_p99_ms=<v> over <n> ops": reported, never bounded.
    for line in lines:
        if line.startswith("# ungated: "):
            name, value = line.split()[2].split("=")
            result["metrics"][name] = {"value": float(value), "unit": "ms"}
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=DETERMINISTIC)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per seed and trace mode")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    modes = [0, 1] if args.trace == "both" else [int(args.trace)]

    ok = True
    values = {}  # metric -> list of values over all runs
    units = {}
    walls = []
    for seed in parse_seeds(args.seeds):
        for trace in modes:
            first = None
            for run in range(args.runs):
                result, wall = run_once(args.workload, seed, seconds, trace)
                walls.append(wall)
                if result is None or not result["correct"]:
                    print(f"FAIL seed={seed} trace={trace} run={run}: "
                          f"{'no result' if result is None else 'wrong answers'}")
                    ok = False
                    continue
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                for k, v in result["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                    units[k] = v["unit"]
                print(f"seed={seed} trace={trace} run={run} wall={wall:.1f}s "
                      f"attempted={result['attempted']}", flush=True)
                if first is None:
                    first = metrics
                    continue
                for name in DETERMINISTIC[args.workload]:
                    if name in metrics and metrics[name] != first[name]:
                        print(f"FAIL seed={seed}: {name} changed between runs "
                              f"({first[name]} -> {metrics[name]})")
                        ok = False

    print(f"\n{'metric':36} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7}  bound")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        med, q1, q3, frac = spread(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and frac > bound / 3:
            flag = "  > bound/3"
        print(f"{name:36} {units[name]:8} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{frac:7.3f}  {'' if bound is None else bound}{flag}")
    if walls:
        print(f"\nruns={len(walls)} wall per run: max {max(walls):.1f}s "
              f"median {statistics.median(walls):.1f}s")
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
