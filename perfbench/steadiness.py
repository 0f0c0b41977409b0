#!/usr/bin/env python3
"""Steadiness evidence: run workloads repeatedly, report each metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--first-seed 1]
                                    [--sets 1] [workload ...]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1,
...) for each workload, one run at a time, and prints per end-to-end metric
the median and its spread: the distance between the first and third
quartiles (statistics.quantiles(n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. With --sets 2 it runs the whole set
again on the same seeds and also prints how far each median moved between
the sets. It ends with the largest spread and the largest median move, each
as a share of its metric's bound, setup_s included. The raw results are
appended to .bench_out/steadiness.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workloads, a, set_no):
    """{workload: {metric: [value per run]}} of one set of runs."""
    out = {}
    for w in workloads:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            r = subprocess.run([sys.executable, str(ROOT / "perfbench/run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
                               cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if r.returncode != 0 or not result["correct"]:
                print(f"set {set_no} {w} seed {seed}: FAILED (exit {r.returncode})", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            with open(ROOT / ".bench_out/steadiness.jsonl", "a") as f:
                f.write(json.dumps({"set": set_no, "workload": w, "seed": seed,
                                    "seconds": a.seconds, "result": result}) + "\n")
        out[w] = values
    return out


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    sets = [run_set(a.workloads, a, n + 1) for n in range(a.sets)]

    worst_spread = worst_move = (0.0, "")
    print(f"\n{a.runs} runs per workload and set, seeds {a.first_seed}.."
          f"{a.first_seed + a.runs - 1}, {a.seconds:g} s each")
    head = "".join(f" {f'set {n + 1} median':>14s} {'spread':>8s}" for n in range(a.sets))
    print(f"  {'workload':15s} {'metric':16s}{head} {'moved' if a.sets == 2 else '':>8s} bound")
    for w in a.workloads:
        for name, bound in bounds.items():
            cells = ""
            for s in sets:
                values = s[w][name]
                share = spread(values)
                worst_spread = max(worst_spread, (share / bound, f"{w} {name} {share:.1%}"))
                cells += f" {statistics.median(values):14.6g} {share:8.1%}"
            moved = ""
            if a.sets == 2:
                m1, m2 = (statistics.median(s[w][name]) for s in sets)
                change = (m2 - m1) / m1
                worst_move = max(worst_move, (abs(change) / bound, f"{w} {name} {change:+.1%}"))
                moved = f"{change:+.1%}"
            print(f"  {w:15s} {name:16s}{cells} {moved:>8s} {bound:.2f}")
    print(f"\nlargest spread: {worst_spread[1]} = {worst_spread[0]:.2f} of its bound")
    if a.sets == 2:
        print(f"largest median move between sets, either direction: {worst_move[1]} = "
              f"{worst_move[0]:.2f} of its bound")


if __name__ == "__main__":
    main()
