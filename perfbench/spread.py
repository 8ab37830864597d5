#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload in BENCHMARK.json (or those named with --workload)
once per seed, then prints, per metric, the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload table5_sweep] [--json out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()

    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    worst = 0.0
    for w in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[w] = values
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{w:18} {name:12} median {med:12.4f}  iqr/median {spread:.4f}"
                  f"  bound {bounds[name]}  min {min(vs):.4f}  max {max(vs):.4f}",
                  flush=True)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)


if __name__ == "__main__":
    main()
