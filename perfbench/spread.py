#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [WORKLOAD ...]

For every workload (all of BENCHMARK.json's by default) it runs the
benchmark command once per seed, then prints, per metric, the median and
the first and third quartiles (Python's statistics.quantiles, n=4), the
quartile distance as a share of the median, and the failed-operation share.
The raw result lines are kept in perfbench/out/spread-<trace>.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv):
    seeds, trace, workloads = parse_seeds("1-10"), "0", []
    args = iter(argv)
    for arg in args:
        if arg == "--seeds":
            seeds = parse_seeds(next(args))
        elif arg == "--trace":
            trace = next(args)
        else:
            workloads.append(arg)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {}
    for workload in workloads:
        rows = []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", trace,
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            rows.append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: {out.stdout.strip().splitlines()[-1]}", flush=True)
        results[workload] = rows
        print(f"\n{workload}: failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in rows})}, "
              f"correct {all(r['correct'] for r in rows)}")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if share <= bound else 'OVER'}"
            print(f"  {name:<40} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {share:.4f}{flag}")
        print(flush=True)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"spread-{trace}.json").write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
