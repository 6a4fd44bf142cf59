#!/usr/bin/env python3
"""Steadiness report: repeat one workload N times and show run-to-run spread.

Run from the repository root:

    python3 _perfbench/steady.py --workload whatif-idle --runs 10

Each run gets its own --seed (first-seed, first-seed+1, ...). For every
end-to-end metric in BENCHMARK.json it prints the median, the quartiles
(statistics.quantiles(values, n=4)), and the quartile spread as a share of
the median next to the metric's bound and a third of it. Beside each
host-normalised time it shows the spread of the raw time (before the host
factor divides it), and it prints each run's steal share and host factor, so
a noisy-neighbour phase shows beside the figures.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "_perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    host = {}
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[5:])
    return json.loads(lines[-1]), host


def stats(vals):
    """Median, quartiles, and the quartile distance as a share of the median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    raw = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        res, host = run_once(args.workload, seed, seconds, 0)
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        for name, v in host.get("raw", {}).items():
            raw.setdefault(name, []).append(v)
        shown = " ".join(f"{n}={res['metrics'][n]['value']:.4g}" for n in values)
        print(f"run {i + 1:2d} seed {seed}: {shown} ops={host.get('ops')} "
              f"steal={host.get('steal_share', -1):.3f} host_factor={host.get('host_factor', 0):.3f}",
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'raw':>8s} "
          f"{'bound':>6s} {'bound/3':>8s}")
    worst = 0.0
    for m in bench["end_to_end"]:
        med, q1, q3, spread = stats(values[m["name"]])
        raw_spread = f"{stats(raw[m['name']])[3]:8.3f}" if m["name"] in raw else f"{'-':>8s}"
        ok = "ok" if spread < m["bound"] / 3 else "WIDE"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} {raw_spread} "
              f"{m['bound']:6.2f} {m['bound'] / 3:8.3f} {ok}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
