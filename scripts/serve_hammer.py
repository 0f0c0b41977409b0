#!/usr/bin/env python3
"""End-to-end hammer for the pimserved evaluation daemon.

Spawns one daemon on a Unix socket, then drives it through the full
serving contract:

  1. bit-identity: every served "evaluate" report equals the JSON a
     one-shot `pimsim --json` run of the same request produces,
  2. concurrency: N client threads fire mixed evaluate/batch requests at
     once; every reply is well-formed and matches its request id,
  3. hot-store reuse: repeating a request grows artifact.program_hits and
     the served wall_ms drops versus the cold run,
  4. stats consistency: artifact.program_hits + artifact.program_misses
     == batch.scenarios after every phase,
  5. hostile input: a 100k-deep nesting bomb, a lone-surrogate escape,
     plain garbage, and an oversized line each get a structured
     "bad_request" error — and the daemon keeps serving afterwards,
  6. budgets: "max_time_ps": 1 yields a structured "budget_exceeded",
  7. drain: SIGINT makes the daemon exit 0 on its own.

Exits non-zero with a diagnostic on the first violated invariant.

Usage: serve_hammer.py --pimserved build/pimserved --pimsim build/pimsim
                       [--threads 4] [--repeats 3] [--workdir DIR]
"""
import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading

WORKLOADS = ["mlp", "tiny_cnn"]
WARM_SAMPLES = 5  # odd, so the median is one sample


def fail(msg):
    print("serve_hammer: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def evaluate_request(rid, workload):
    return {"id": rid, "kind": "evaluate", "workload": workload,
            "arch": "tiny", "input_hw": 8, "functional": True}


def roundtrip(sock_path, lines, timeout=120):
    """Send request lines over one connection, return one parsed reply each."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        try:
            s.sendall(("\n".join(lines) + "\n").encode())
        except BrokenPipeError:
            # The daemon refuses oversized lines by replying mid-upload and
            # closing; the error reply is still queued for us to read.
            pass
        buf = b""
        replies = []
        while len(replies) < len(lines):
            chunk = s.recv(65536)
            if not chunk:
                fail("daemon closed the connection mid-conversation")
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                replies.append(json.loads(line))
        return replies


def request(sock_path, obj):
    return roundtrip(sock_path, [json.dumps(obj)])[0]


def get_stats(sock_path):
    reply = request(sock_path, {"kind": "stats"})
    if not reply.get("ok"):
        fail("stats request refused: %s" % reply)
    return reply["stats"]["counters"]


def check_stats_identity(counters, where):
    hits = counters.get("artifact.program_hits", 0)
    misses = counters.get("artifact.program_misses", 0)
    ran = counters.get("batch.scenarios", 0)
    if hits + misses != ran:
        fail("%s: program_hits(%d) + program_misses(%d) != batch.scenarios(%d)"
             % (where, hits, misses, ran))


def reference_report(pimsim, workload, workdir):
    cmd = [pimsim, "--workload", workload, "--input-hw", "8", "--arch", "tiny",
           "--functional", "--json"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        fail("reference pimsim run failed (%s): %s"
             % (workload, r.stderr.decode(errors="replace")))
    return json.loads(r.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pimserved", required=True)
    ap.add_argument("--pimsim", required=True)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--workdir", default="")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="pim-serve-hammer-")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    # Short socket path: sun_path caps out around 100 bytes.
    sock_path = os.path.join(tempfile.mkdtemp(prefix="pims-"), "d.sock")

    refs = {w: reference_report(args.pimsim, w, workdir) for w in WORKLOADS}

    daemon = subprocess.Popen(
        [args.pimserved, "--listen", sock_path, "--jobs", "2",
         "--max-inflight", str(max(2, args.threads))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = daemon.stdout.readline()
        if "listening on unix:" not in ready:
            fail("no readiness line, got: %r (stderr: %s)"
                 % (ready, daemon.stderr.read()))

        # Phase 1: bit-identity, cold then repeated (hot-store growth).
        cold_wall = {}
        for rep in range(args.repeats):
            before = get_stats(sock_path)
            for w in WORKLOADS:
                reply = request(sock_path, evaluate_request("id-%d-%s" % (rep, w), w))
                if not reply.get("ok"):
                    fail("evaluate refused: %s" % reply)
                if reply["report"] != refs[w]:
                    fail("served report for %s differs from pimsim --json" % w)
                if rep == 0:
                    cold_wall[w] = reply["wall_ms"]
            after = get_stats(sock_path)
            check_stats_identity(after, "phase1 rep %d" % rep)
            if rep > 0:
                grew = after.get("artifact.program_hits", 0) \
                    - before.get("artifact.program_hits", 0)
                if grew < len(WORKLOADS):
                    fail("repeat rep %d grew program_hits by %d, want >= %d"
                         % (rep, grew, len(WORKLOADS)))
        # Warm runs must not be slower than cold ones (compile skipped). One
        # warm sample on a loaded host can land on a descheduled slice, so
        # the bar applies to the median of several.
        for w in WORKLOADS:
            warm = sorted(
                request(sock_path, evaluate_request("warm-%d-%s" % (i, w), w))["wall_ms"]
                for i in range(WARM_SAMPLES))
            median = warm[len(warm) // 2]
            if median > max(cold_wall[w], 1.0) * 1.5:
                fail("warm runs of %s (median %.2f ms of %d) slower than cold (%.2f ms)"
                     % (w, median, WARM_SAMPLES, cold_wall[w]))

        # Phase 2: concurrent mixed clients, one connection per thread.
        errors = []

        def client(tid):
            try:
                lines = []
                for i in range(3):
                    lines.append(json.dumps(
                        evaluate_request("t%d-e%d" % (tid, i),
                                         WORKLOADS[(tid + i) % len(WORKLOADS)])))
                lines.append(json.dumps(
                    {"id": "t%d-b" % tid, "kind": "batch", "models": ["mlp"],
                     "policies": ["perf", "util"], "batches": [1],
                     "arch": "tiny", "input_hw": 8}))
                replies = roundtrip(sock_path, lines)
                for line, reply in zip(lines, replies):
                    want = json.loads(line)["id"]
                    if reply.get("id") != want:
                        raise AssertionError("id mismatch: %s vs %s"
                                             % (reply.get("id"), want))
                    code = (reply.get("error") or {}).get("code")
                    if not reply.get("ok") and code != "overloaded":
                        raise AssertionError("unexpected refusal: %s" % reply)
                    if reply.get("ok") and reply["kind"] == "evaluate":
                        w = json.loads(line)["workload"]
                        if reply["report"] != refs[w]:
                            raise AssertionError("concurrent report mismatch")
            except Exception as e:  # surfaced by the main thread
                errors.append("thread %d: %s" % (tid, e))

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(args.threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            fail("; ".join(errors))
        check_stats_identity(get_stats(sock_path), "phase2")

        # Phase 3: hostile inputs, each answered structurally, daemon alive.
        bomb = '{"kind":"evaluate","workload":' + "[" * 100000
        hostiles = [
            ("nesting bomb", bomb),
            ("lone surrogate", '{"kind":"evaluate","workload":"\\uD800"}'),
            ("garbage", "this is not json"),
            ("wrong kind type", '{"kind":42}'),
            ("oversized", '{"kind":"evaluate","pad":"' + "x" * (9 << 20) + '"}'),
        ]
        for name, line in hostiles:
            reply = roundtrip(sock_path, [line])[0]
            if reply.get("ok") or reply["error"]["code"] != "bad_request":
                fail("%s: want structured bad_request, got %s" % (name, reply))
            alive = request(sock_path, evaluate_request("post-" + name.split()[0],
                                                        "mlp"))
            if not alive.get("ok"):
                fail("daemon unhealthy after %s: %s" % (name, alive))

        # Phase 4: per-request budget.
        tight = evaluate_request("tight", "mlp")
        tight["max_time_ps"] = 1
        reply = request(sock_path, tight)
        if reply.get("ok") or reply["error"]["code"] != "budget_exceeded":
            fail("max_time_ps=1: want budget_exceeded, got %s" % reply)

        # Phase 5: SIGINT drains; daemon exits 0 and unlinks its socket.
        daemon.send_signal(signal.SIGINT)
        rc = daemon.wait(timeout=60)
        if rc != 0:
            fail("daemon exited %d after SIGINT (stderr: %s)"
                 % (rc, daemon.stderr.read()))
        if os.path.exists(sock_path):
            fail("socket path survived the drain")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    print("serve_hammer: OK (%d threads, %d repeats, %d hostile inputs)"
          % (args.threads, args.repeats, 5))


if __name__ == "__main__":
    main()
