#!/usr/bin/env python3
"""Self-tests of the perfbench harness.

    python3 perfbench/test_benchstats.py

Pins the statistics rules in benchstats.py (the percentile rules and the
run they reject, the geometric mean of medians, cost-class handling,
failure counting, span self time) and, when the pimbench binary has been built (.bench_build or
$CARGO_TARGET_DIR), its closed-loop latency timing against a fake server.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchstats as bs  # noqa: E402


def samples(per_class):
    """{cls: [ms, ...]} -> pimbench's [[cls, ms, ok], ...]."""
    return [[c, ms, 1] for c, values in per_class.items() for ms in values]


class PercentileRule(unittest.TestCase):
    def test_quantile_interpolates(self):
        self.assertEqual(bs.quantile([4, 1, 3, 2], 0.0), 1)
        self.assertEqual(bs.quantile([4, 1, 3, 2], 1.0), 4)
        self.assertAlmostEqual(bs.quantile([1, 2, 3, 4], 0.5), 2.5)

    def test_tail_needs_ten_samples_beyond(self):
        # p95 of n samples leaves about n/20 beyond it: 200 support it,
        # 180 (9 beyond) do not.
        self.assertEqual(bs.samples_beyond(list(range(200)), 0.95), 10)
        self.assertTrue(bs.tail_supported(list(range(200)), 0.95))
        self.assertEqual(bs.samples_beyond(list(range(180)), 0.95), 9)
        self.assertFalse(bs.tail_supported(list(range(180)), 0.95))
        self.assertFalse(bs.tail_supported([], 0.95))

    def test_rank_on_a_class_boundary_is_flagged(self):
        # 94 fast samples, then a slow class: p95 sits on the gap.
        values = [1.0 + i * 1e-3 for i in range(94)] + [5.0 + i * 1e-3 for i in range(6)]
        self.assertFalse(bs.rank_in_one_class(values, 0.95))
        self.assertTrue(bs.rank_in_one_class(values, 0.50))
        one_class = [1.0 + i * 1e-3 for i in range(1000)]
        self.assertTrue(bs.rank_in_one_class(one_class, 0.95))


class PercentileRulesGateTheRun(unittest.TestCase):
    """A dse/serve run whose reported percentile breaks a rule is not correct."""

    def raw(self, values, **extra):
        return {"samples": samples({0: values}), "cold_classes": [], "check_failures": [],
                "check_failure_count": 0,
                "untraced": {"attempted": len(values), "failed": 0, "seconds": 1.0}, **extra}

    def test_a_steady_run_passes(self):
        self.assertEqual(bs.check_failures(self.raw([1.0 + i * 1e-4 for i in range(1000)]),
                                           percentiles=True), [])

    def test_a_thin_tail_is_rejected(self):
        # 100 samples leave 5 beyond p95.
        problems = bs.check_failures(self.raw([1.0 + i * 1e-4 for i in range(100)]),
                                     percentiles=True)
        self.assertEqual(len(problems), 1)
        self.assertIn("p95: 5 of 100 samples lie beyond it", problems[0])

    def test_a_rank_on_a_class_boundary_is_rejected(self):
        values = [1.0 + i * 1e-4 for i in range(940)] + [5.0 + i * 1e-4 for i in range(60)]
        problems = bs.check_failures(self.raw(values), percentiles=True)
        self.assertEqual(problems, ["p95: its rank sits on a boundary between cost classes"])

    def test_the_rules_apply_only_where_percentiles_are_reported(self):
        raw = self.raw([1.0 + i * 1e-4 for i in range(100)])
        self.assertEqual(bs.check_failures(raw, percentiles=False), [])

    def test_failed_checks_and_no_attempts_are_rejected(self):
        raw = self.raw([1.0] * 1000, check_failures=[{"name": "halts", "detail": "vgg8"}],
                       check_failure_count=3)
        self.assertEqual(bs.check_failures(raw, percentiles=False),
                         ["halts: vgg8", "2 more failed checks"])
        raw = self.raw([])
        self.assertIn("no evaluation attempted", bs.check_failures(raw, percentiles=False))


class CostClasses(unittest.TestCase):
    def test_geomean_of_medians(self):
        s = samples({0: [1.0, 100.0, 2.0], 1: [8.0, 8.0, 1000.0]})
        self.assertAlmostEqual(bs.geomean_of_medians(s), 4.0)  # sqrt(2 * 8)

    def test_geomean_ignores_class_sizes(self):
        # A pooled median follows whichever class has more samples; the
        # geomean of medians does not.
        few = samples({0: [10.0] * 3, 1: [1000.0] * 5})
        many = samples({0: [10.0] * 5, 1: [1000.0] * 3})
        self.assertAlmostEqual(bs.geomean_of_medians(few), bs.geomean_of_medians(many))
        self.assertNotEqual(bs.quantile([ms for _, ms, _ in few], 0.5),
                            bs.quantile([ms for _, ms, _ in many], 0.5))

    def test_slowest_class_reports_its_median(self):
        s = samples({0: [1.0, 1.1, 1.2] * 10, 1: [50.0, 60.0, 70.0] * 2, 2: [55.0] * 5})
        self.assertEqual(bs.slowest_class(s), (1, 60.0))

    def test_cold_classes_are_left_out_of_percentiles(self):
        raw = {"samples": samples({0: [1.0] * 50, 1: [1.0] * 50, 2: [30.0] * 9}),
               "cold_classes": [2]}
        self.assertEqual(bs.warm_ms(raw), [1.0] * 100)

    def test_failed_samples_are_left_out(self):
        s = [[0, 5.0, 1], [0, 7.0, 1], [0, 1000.0, 0]]
        self.assertEqual(bs.by_class(s), {0: [5.0, 7.0]})


class FailureCounting(unittest.TestCase):
    def test_failures_count_against_attempts_in_every_phase(self):
        raw = {"untraced": {"attempted": 10, "failed": 1, "seconds": 2.0},
               "traced": {"attempted": 5, "failed": 2, "seconds": 1.0}}
        self.assertEqual(bs.failures(raw), (15, 3))

    def test_rate_counts_completed_only(self):
        self.assertEqual(bs.rate({"attempted": 10, "failed": 2, "seconds": 4.0}), 2.0)


class SelfTime(unittest.TestCase):
    def span(self, i, name, kind, parent, t0, t1, **attrs):
        return {"id": i, "name": name, "kind": kind, "eval": 0, "parent": parent,
                "t0": t0, "t1": t1, "attrs": attrs}

    def test_self_time_by_layer(self):
        spans = [
            self.span(0, "bench.eval", "root", -1, 0, 100),
            self.span(1, "compiler.compile", "op", 0, 0, 20),
            self.span(2, "compiler.mapping", "probe", 0, 20, 25),
            self.span(3, "arch.chip_run", "op", 0, 25, 95, kernel_events=7, instructions=1),
        ]
        # The root's own 5 ns: 100 minus every child, probes included.
        self.assertEqual(bs.self_times(spans), {"compiler": 20, "arch": 70, "glue": 5})
        self.assertEqual(bs.dominant_layer(spans)[0], "arch")


class ClosedLoopTiming(unittest.TestCase):
    def test_pimbench_closed_loop_client(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR") or HERE.parent / ".bench_build")
        exe = (build if build.is_absolute() else HERE.parent / build) / "pimbench"
        if not exe.exists():
            self.skipTest("pimbench not built (run perfbench/run.py once)")
        # The socket goes under a relative path: sun_path holds 108 bytes.
        scratch = HERE.parent / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            r = subprocess.run([str(exe), "--self-test", "--out-dir",
                                os.path.relpath(d, HERE.parent)],
                               cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=60)
        out = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(r.returncode, 0, out)
        self.assertTrue(out["ok"])
        self.assertEqual(out["faster_than_server"], 0)  # latency covers the server's delay
        self.assertFalse(out["overlapped"])             # never two requests in flight


if __name__ == "__main__":
    unittest.main()
