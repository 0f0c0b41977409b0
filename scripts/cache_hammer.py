#!/usr/bin/env python3
"""Multi-process durable-cache hammer.

Launches N concurrent `pimdse` processes over the same search space, all
sharing one --cache-dir with a deliberately small size cap so eviction runs
while other processes are mid-read/mid-write, plus one serial reference run
with a private cache. Asserts the robustness contract of the shared cache:

  1. no process fails (every exit code is 0),
  2. no entry is ever quarantined (no *.bad files — concurrent writers must
     never let a reader observe a torn entry),
  3. no stray temp files survive (atomic-rename discipline),
  4. every concurrent run's result JSON is byte-identical to the serial
     reference (a lost or corrupt cache entry would at worst recompute —
     but a *wrong* entry would change the frontier, which this catches).

Exits non-zero with a diagnostic on the first violated invariant.

Usage: cache_hammer.py --pimdse build/pimdse --space configs/dse_small.json
                       [--procs 4] [--rounds 2] [--cap-mb 1] [--workdir DIR]
"""
import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile


def run_one(pimdse, space, cache_dir, cap_mb, out_json, sampler, budget):
    cmd = [
        pimdse, "--space", space, "--sampler", sampler, "--budget", str(budget),
        "--jobs", "2", "--cache-dir", cache_dir, "--cache-cap-mb", str(cap_mb),
        "--out", out_json, "--quiet",
    ]
    return subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pimdse", required=True, help="path to the pimdse binary")
    ap.add_argument("--space", required=True, help="search-space JSON")
    ap.add_argument("--procs", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=2,
                    help="hammer rounds; later rounds hit a warm, "
                         "eviction-churned cache")
    ap.add_argument("--cap-mb", type=int, default=1,
                    help="tiny cap so eviction runs during the hammer")
    ap.add_argument("--sampler", default="grid")
    ap.add_argument("--budget", type=int, default=64)
    ap.add_argument("--workdir", default="",
                    help="scratch dir (default: a fresh temp dir)")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="pim-cache-hammer-")
    os.makedirs(workdir, exist_ok=True)
    shared = os.path.join(workdir, "shared-cache")
    shutil.rmtree(shared, ignore_errors=True)
    # The result cache key does not name the simulator build, so a private
    # cache left by an earlier build would replay that build's answers.
    ref_cache = os.path.join(workdir, "ref-cache")
    shutil.rmtree(ref_cache, ignore_errors=True)

    # Serial reference with a fresh private cache: the ground-truth frontier.
    ref_json = os.path.join(workdir, "reference.json")
    p = run_one(args.pimdse, args.space, ref_cache,
                0, ref_json, args.sampler, args.budget)
    _, err = p.communicate()
    if p.returncode != 0:
        sys.exit("cache_hammer: reference run failed (%d):\n%s"
                 % (p.returncode, err.decode()))

    failures = []
    for rnd in range(args.rounds):
        procs = []
        for i in range(args.procs):
            out = os.path.join(workdir, "hammer-%d-%d.json" % (rnd, i))
            procs.append((out, run_one(args.pimdse, args.space, shared,
                                       args.cap_mb, out, args.sampler,
                                       args.budget)))
        for out, p in procs:
            _, err = p.communicate()
            if p.returncode != 0:
                failures.append("round %d: %s exited %d:\n%s"
                                % (rnd, out, p.returncode, err.decode()))
            elif not filecmp.cmp(out, ref_json, shallow=False):
                failures.append("round %d: %s differs from the serial "
                                "reference" % (rnd, out))

    bad = [f for f in os.listdir(shared) if f.endswith(".bad")]
    if bad:
        failures.append("quarantined entries in the shared cache: %s" % bad)
    stray = [f for f in os.listdir(shared) if ".tmp" in f]
    if stray:
        failures.append("stray temp files in the shared cache: %s" % stray)

    if failures:
        for f in failures:
            print("cache_hammer: FAIL: %s" % f, file=sys.stderr)
        sys.exit(1)
    print("cache_hammer: PASS — %d procs x %d rounds over %s: no failures, "
          "no quarantined entries, no stray temps, all frontiers "
          "byte-identical to the serial reference"
          % (args.procs, args.rounds, shared))


if __name__ == "__main__":
    main()
