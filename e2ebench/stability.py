#!/usr/bin/env python3
"""Stability check of the end-to-end benchmark.

Runs a workload N times in each of two sets, every run with its own seed
(set k uses seeds base_k, base_k + 1, ...), then prints, per end-to-end
metric, each set's median and IQR (as a share of the median), the bound from
BENCHMARK.json, and the drift between the two medians (as a share of the
first, signed so that positive means worse).  It also compares the share of
failed operations between the sets.

Run from the repository root:

    python3 e2ebench/stability.py --workload kv_zipf --runs 10 --seeds 1,1001

--workload all runs every workload of BENCHMARK.json.  Each run goes
through the benchmark's own command, so it builds from this checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", default="1,1001", help="first seed of each of the two sets")
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bases = [int(s) for s in args.seeds.split(",")]
    if len(bases) != 2:
        raise SystemExit("--seeds takes the first seeds of two sets, as in 1,1001")
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    worst = {}
    for name in names:
        sets = []
        for base in bases:
            runs = [run_once(bench["command"], name, base + i, seconds) for i in range(args.runs)]
            if not all(r["correct"] for r in runs):
                raise SystemExit(f"{name}: a run reported incorrect output")
            sets.append(runs)
        print(f"\n{name}: {args.runs} runs x 2 sets, seeds from {bases}, {seconds} s each")
        for k, runs in enumerate(sets):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"  set {k + 1}: failed {failed} of {attempted} attempted operations")
        print(f"  {'metric':<14} {'bound':>6} {'median1':>14} {'iqr1':>7} {'median2':>14} {'iqr2':>7}  drift")
        for m in bench["end_to_end"]:
            cols = []
            meds = []
            for runs in sets:
                med, iqr = spread([r["metrics"][m["name"]]["value"] for r in runs])
                meds.append(med)
                cols.append(f"{med:>14.6g} {iqr:>7.2%}")
                worst[(name, m["name"], "iqr")] = max(worst.get((name, m["name"], "iqr"), 0), iqr / m["bound"])
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (meds[1] - meds[0]) / meds[0]
            worst[(name, m["name"], "drift")] = abs(drift) / m["bound"]
            print(f"  {m['name']:<14} {m['bound']:>6.2f} " + " ".join(cols) + f"  {drift:+.2%}")
        for m in bench["end_to_end"]:
            for k, runs in enumerate(sets):
                vals = " ".join(f"{r['metrics'][m['name']]['value']:.4g}" for r in runs)
                print(f"    {m['name']:<14} set {k + 1}: {vals}")
    key = max(worst, key=worst.get)
    print(f"\nlargest share of a bound used: {worst[key]:.2f} ({key[0]} {key[1]} {key[2]})")


if __name__ == "__main__":
    main()
