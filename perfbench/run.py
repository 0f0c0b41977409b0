#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer host-time benchmark of pimsim-nn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pimsim-nn source tree. Builds perfbench/ (which
builds the repository's pimlib) into $CARGO_TARGET_DIR or .bench_build,
runs the workload in its own pimbench process, checks its outputs, and
prints one JSON result as the last stdout line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1, with the names and units
BENCHMARK.json gives them. Workloads, metrics and the noise rules they
follow are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

WORKLOADS = ("zoo_timing", "zoo_functional", "dse_budgeted", "serve_warm")
ZOO = ("zoo_timing", "zoo_functional")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 120          # set-up + references + the last round on top of --seconds
# Set-up-only processes behind the setup_s median, half spawned before the
# measured run and half after it. Set-up is a few ms of process start, and
# the host's speed drifts over seconds: 60 spawns in one burst spread as much
# from run to run as 10 did, so the samples are taken at two moments.
SETUP_SPAWNS_EACH_SIDE = 10
# CPUs a workload process may use: one per active thread. Pinning keeps the
# scheduler from migrating threads and waking idle CPUs mid-request, which
# on a 4-CPU VM more than doubled serve_warm's p95 from run to run. The
# first allowed CPU is skipped when others suffice: it usually takes the
# most device interrupts.
ACTIVE_THREADS = {"zoo_timing": 1, "zoo_functional": 1, "dse_budgeted": 2, "serve_warm": 2}

def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_root():
    root = Path(__file__).resolve().parent.parent
    for need in ("CMakeLists.txt", "src", "configs/dse_paper.json", "BENCHMARK.json"):
        if not (root / need).exists():
            fail(f"no pimsim-nn source tree here ({root / need} is missing)")
    return root


def metric_units(root, kind):
    """{name: unit} of BENCHMARK.json's `kind` metrics ("end_to_end" or "per_layer")."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def build(root):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "pimbench", "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir, build_dir / "pimbench"


def host_metadata(root, build_dir):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        pass
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_revision": rev,
        "python": platform.python_version(),
    }


def pinned_cpus(workload):
    allowed = sorted(os.sched_getaffinity(0))
    need = ACTIVE_THREADS[workload]
    return allowed[1:1 + need] if len(allowed) > need else allowed[:need]


def spawn(exe, args, cpus, out_dir, timeout_s):
    """Run pimbench on `cpus`; return (seconds from spawn to READY, stdout lines).

    pimbench stamps its READY line with CLOCK_MONOTONIC, the clock of
    time.monotonic_ns(), so reading the line from the pipe is not timed.
    """
    cmd = [str(exe), *args, "--cpus", ",".join(map(str, cpus)), "--out-dir", str(out_dir)]
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout_s, proc.kill)  # a hung run must not outlive its budget
    watchdog.start()
    ready_s = None
    lines = []
    try:
        for line in proc.stdout:
            if ready_s is None and line.startswith("READY "):
                ready_s = (int(line.split()[1]) - t0) * 1e-9
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready_s is None:
        fail(f"pimbench {' '.join(args)} failed (exit {proc.returncode})", 1)
    return ready_s, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = source_root()
    os.chdir(root)
    build_dir, exe = build(root)
    # Relative to the root (the cwd): serve_warm's Unix socket lives there,
    # and a socket path must fit in 108 bytes however deep the checkout is.
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    base = ["--workload", a.workload, "--seed", str(a.seed)]

    cpus = pinned_cpus(a.workload)

    def setup_spawns():
        return [spawn(exe, base + ["--seconds", "1", "--setup-only"], cpus, out_dir, 30)[0]
                for _ in range(SETUP_SPAWNS_EACH_SIDE)]

    setup = setup_spawns()
    ready_s, lines = spawn(exe, base + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
                           cpus, out_dir, a.seconds + RUN_GRACE_S)
    setup += setup_spawns() + [ready_s]
    raw = json.loads(lines[-1])
    attempted, failed = benchstats.failures(raw)
    zoo = a.workload in ZOO
    problems = benchstats.check_failures(raw, percentiles=not zoo and a.trace == 0)
    correct = not problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    host = host_metadata(root, build_dir)
    digest = hashlib.sha256(json.dumps(raw["digests"], sort_keys=True).encode()).hexdigest()[:16]
    print(f"host: {json.dumps(host)}")
    print(f"workload {a.workload} seed {a.seed}: {attempted} attempted, {failed} failed, "
          f"{raw['checks']} checks; simulated-results digest {digest} over "
          f"{len(raw['digests'])} classes; counters {json.dumps(raw['counters'])}")
    if a.trace == 0:
        values = benchstats.end_to_end(raw, setup, zoo)
        for note in benchstats.tail_notes(raw, zoo):
            print(f"  {note}")
    else:
        span_file = out_dir / f"spans-{a.workload}-{a.seed}.json"
        spans = json.loads(span_file.read_text())
        values = benchstats.per_layer(raw, spans)
        layer, share = benchstats.dominant_layer(spans)
        print(f"  dominant layer (self time): {layer} {share:.1f}%; spans in {span_file.name}")
    units = metric_units(root, "per_layer" if a.trace else "end_to_end")
    if set(values) != set(units):
        fail(f"metrics computed {sorted(values)} are not those BENCHMARK.json names "
             f"{sorted(units)}", 1)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, v in metrics.items():
        print(f"  {k:28s} {v['value']:14.6g} {v['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                            "trace": a.trace, "host": host, "result": result,
                            "setup_samples_s": setup}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
