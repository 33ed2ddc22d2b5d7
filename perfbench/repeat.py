#!/usr/bin/env python3
"""Run every workload repeatedly and report how steady each metric is.

    python3 perfbench/repeat.py [--runs 10]

Run from the root of the checkout. The command, run length and
workloads come from BENCHMARK.json; pass p (0-based) runs every
workload once with seed p + 1, and passes alternate the workload order
(forward, then reversed), so slow drift of the machine does not always
land on the same workload. For each workload and end-to-end metric it
prints the median, the first and third quartiles (statistics.quantiles,
n=4), the spread (Q3 - Q1) / median, the metric's bound and whether the
spread is within a third of it. It also prints the share of failed
operations, which must be identical in every run, and exits 1 if any
run was incorrect, the share differs between runs, or any spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in names}
    shares = {w: set() for w in names}
    incorrect = []
    for p in range(args.runs):
        order = names if p % 2 == 0 else names[::-1]
        for w in order:
            seed = p + 1
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                sys.exit(f"{w} seed {seed}: exit {out.returncode}")
            res = json.loads(lines[-1])
            if not res["correct"]:
                incorrect.append((w, seed))
            shares[w].add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            figures = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items()))
            print(f"pass {p} {w} seed {seed}: attempted {res['attempted']} failed {res['failed']} {figures}",
                  file=sys.stderr)

    bad = bool(incorrect)
    for w in names:
        print(f"\n{w}: failed share {sorted(shares[w])}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in sorted(values[w].items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            mark = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
            if spread > bound:
                bad = True
            print(f"  {name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bound:>6} {mark}")
        if len(shares[w]) > 1:
            bad = True
    if incorrect:
        print(f"\nincorrect runs: {incorrect}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
