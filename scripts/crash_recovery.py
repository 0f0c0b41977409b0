#!/usr/bin/env python3
"""Crash-recovery smoke: kill -9 a journaled exploration, resume, compare.

Exercises the crash-safety contract end to end, using the pim::testing
failpoints baked into the binaries (PIMFAIL=site[:from[:count]]):

  1. reference   — one uninterrupted `pimdse` run; its --out JSON is the
                   ground truth (byte-deterministic by design).
  2. crash       — the same run with --journal and PIMFAIL=journal_crash:N,
                   which SIGKILLs the process from inside the Nth journal
                   append after writing a torn half-record. This is a real
                   kill -9: no destructors, no flush, a partial line on disk.
  3. resume      — rerun with the same --journal: it must replay the intact
                   records, discard the torn tail, finish the remaining
                   points, and produce a result byte-identical to (1).
  4. corruption  — PIMFAIL=cache_truncate forces a truncated cache-entry
                   write; the next run over that cache must quarantine the
                   entry (dse.cache_quarantined >= 1 in --metrics-out),
                   recompute it, and still match (1).

Exits non-zero with a diagnostic on the first violated invariant.

Usage: crash_recovery.py --pimdse build/pimdse --space configs/dse_small.json
                         [--crash-after 3] [--workdir DIR]
"""
import argparse
import filecmp
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile


def run(pimdse, space, out_json, extra=None, env_extra=None):
    cmd = [pimdse, "--space", space, "--sampler", "grid", "--jobs", "2",
           "--out", out_json, "--quiet"] + (extra or [])
    env = dict(os.environ)
    env.pop("PIMFAIL", None)
    env.update(env_extra or {})
    return subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=env)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pimdse", required=True, help="path to the pimdse binary")
    ap.add_argument("--space", required=True, help="search-space JSON")
    ap.add_argument("--crash-after", type=int, default=3,
                    help="journal append that SIGKILLs the crash run")
    ap.add_argument("--workdir", default="",
                    help="scratch dir (default: a fresh temp dir)")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="pim-crash-recovery-")
    os.makedirs(workdir, exist_ok=True)
    journal = os.path.join(workdir, "run.journal")
    ref_json = os.path.join(workdir, "reference.json")
    res_json = os.path.join(workdir, "resumed.json")
    for f in (journal, ref_json, res_json):
        if os.path.exists(f):
            os.remove(f)

    # 1. Uninterrupted reference (no cache: determinism must not lean on it).
    p = run(args.pimdse, args.space, ref_json, ["--no-cache"])
    if p.returncode != 0:
        sys.exit("crash_recovery: reference run failed (%d):\n%s"
                 % (p.returncode, p.stderr.decode()))

    # 2. Journaled run killed -9 from inside a journal append.
    p = run(args.pimdse, args.space, os.path.join(workdir, "crashed.json"),
            ["--no-cache", "--journal", journal],
            {"PIMFAIL": "journal_crash:%d" % args.crash_after})
    if p.returncode != -signal.SIGKILL and p.returncode != 128 + signal.SIGKILL:
        sys.exit("crash_recovery: expected the crash run to die of SIGKILL, "
                 "got exit %d:\n%s" % (p.returncode, p.stderr.decode()))
    if not os.path.exists(journal):
        sys.exit("crash_recovery: the crash run left no journal behind")

    # 3. Resume: replay + finish must reproduce the reference byte for byte.
    p = run(args.pimdse, args.space, res_json,
            ["--no-cache", "--journal", journal])
    if p.returncode != 0:
        sys.exit("crash_recovery: resume failed (%d):\n%s"
                 % (p.returncode, p.stderr.decode()))
    if b"journal: replayed" not in p.stderr:
        sys.exit("crash_recovery: resume did not replay anything:\n%s"
                 % p.stderr.decode())
    if not filecmp.cmp(res_json, ref_json, shallow=False):
        sys.exit("crash_recovery: resumed result differs from the "
                 "uninterrupted reference (%s vs %s)" % (res_json, ref_json))

    # 4. Cache corruption: a truncated entry must be quarantined and
    #    recomputed, not served.
    cache = os.path.join(workdir, "corrupt-cache")
    shutil.rmtree(cache, ignore_errors=True)
    p = run(args.pimdse, args.space, os.path.join(workdir, "warm.json"),
            ["--cache-dir", cache],
            {"PIMFAIL": "cache_truncate:1:1000000"})
    if p.returncode != 0:
        sys.exit("crash_recovery: truncated-write run failed (%d):\n%s"
                 % (p.returncode, p.stderr.decode()))
    metrics = os.path.join(workdir, "corrupt-metrics.json")
    p = run(args.pimdse, args.space, os.path.join(workdir, "recovered.json"),
            ["--cache-dir", cache, "--metrics-out", metrics])
    if p.returncode != 0:
        sys.exit("crash_recovery: recovery run failed (%d):\n%s"
                 % (p.returncode, p.stderr.decode()))
    with open(metrics) as f:
        doc = json.load(f)
    quarantined = doc.get("counters", {}).get("dse.cache_quarantined", 0)
    if quarantined < 1:
        sys.exit("crash_recovery: expected dse.cache_quarantined >= 1 after "
                 "a truncated cache write, metrics say %r" % (quarantined,))
    if not filecmp.cmp(os.path.join(workdir, "recovered.json"), ref_json,
                       shallow=False):
        sys.exit("crash_recovery: post-quarantine result differs from the "
                 "reference")

    print("crash_recovery: PASS — kill -9 at journal append %d resumed "
          "byte-identically; truncated cache entries quarantined (%d) and "
          "recomputed" % (args.crash_after, quarantined))


if __name__ == "__main__":
    main()
