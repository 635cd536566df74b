"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s bench -p "test_*.py"

They run tiny versions of each workload and take under a minute.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rsskit import verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _workdir():
    run.RESULTS.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.RESULTS)


class SeedTests(unittest.TestCase):
    def test_same_seed_same_outcomes(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(cls.name), _workdir() as d1, _workdir() as d2:
                a = cls(7, d1).run_op(3)
                b = cls(7, d2).run_op(3)
                self.assertEqual(a.problems, [])
                self.assertEqual(a.failed, 0)
                self.assertEqual((a.outcome, a.attempted, a.inputs),
                                 (b.outcome, b.attempted, b.inputs))

    def test_different_seed_different_inputs(self):
        self.assertNotEqual(workloads.op_seed(7, 0), workloads.op_seed(8, 0))
        self.assertNotEqual(workloads.op_seed(7, 0), workloads.op_seed(7, 1))
        a = workloads.ClosedForm(7, None).run_op(0)
        b = workloads.ClosedForm(8, None).run_op(0)
        self.assertNotEqual(a.inputs, b.inputs)  # Case1-4 counts
        with _workdir() as d1, _workdir() as d2:
            ta = workloads.AuditIO(7, d1).trajectories
            tb = workloads.AuditIO(8, d2).trajectories
        self.assertNotEqual([t.samples[0].state for _, t in ta],
                            [t.samples[0].state for _, t in tb])
        self.assertEqual([k for k, _ in ta], [k for k, _ in tb])


class CheckTests(unittest.TestCase):
    def test_wrong_audit_verdict_fails_the_op(self):
        with _workdir() as d:
            wl = workloads.AuditIO(7, d)
            slot = wl._slot(0)
            kind, traj = wl.trajectories[slot]
            other = workloads.UNSUPERVISED if kind != workloads.UNSUPERVISED else workloads.BENIGN
            wl.trajectories[slot] = (other, traj)
            r = wl.run_op(0)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("verdict", r.problems[0])

    def test_falsification_survivors_fail_the_run(self):
        original = verify.worst_case_gap_analysis
        verify.worst_case_gap_analysis = lambda p, s: (None,) + original(p, s)[1:]
        try:
            r = workloads.ClosedForm(7, None).run_op(0)
        finally:
            verify.worst_case_gap_analysis = original
        self.assertGreaterEqual(r.failed, workloads.ClosedForm.falsify_trials)

    def test_missing_sources_exit_nonzero_without_result(self):
        run.RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            (Path(d) / "bench").mkdir()
            for f in BENCH_DIR.glob("*.py"):
                shutil.copy(f, Path(d) / "bench")
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "closed_form",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


class ScalingTests(unittest.TestCase):
    def test_scaled_metrics_follow_host_speed(self):
        r = workloads.OpResult()
        r.main, r.control, r.op_s = (100, 0.5), (50, 0.25), 0.75
        timed = run.Run()
        timed.add(r, 0.5)  # the host ran at half the reference speed
        timed.setup_s.append((0.2, 0.5))
        wall = run.timing_metrics(timed, scaled=False)
        scaled = run.timing_metrics(timed, scaled=True)
        self.assertAlmostEqual(wall["main_per_s"][0], 200.0)
        self.assertAlmostEqual(scaled["main_per_s"][0], 400.0)
        self.assertAlmostEqual(scaled["control_per_s"][0], 400.0)
        self.assertAlmostEqual(scaled["op_p50_ms"][0], 375.0)
        self.assertAlmostEqual(scaled["op_p90_ms"][0], 375.0)
        self.assertAlmostEqual(scaled["setup_s"][0], 0.1)

    def test_kernel_is_fixed_work(self):
        self.assertEqual(hostspeed.kernel(), hostspeed.kernel())
        self.assertGreater(hostspeed.kernel_seconds(), 0.0)


class MetricNameTests(unittest.TestCase):
    def _check(self, record, expected):
        self.assertTrue(record["correct"], record["problems"])
        got = {k: m["unit"] for k, m in record["metrics"].items()}
        self.assertEqual(got, expected)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run.print_record(record)
        lines = buf.getvalue().splitlines()
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: m["unit"] for k, m in last["metrics"].items()}, expected)
        printed = [line.split(" = ")[0] for line in lines[:-1] if " = " in line]
        self.assertTrue(set(printed) <= set(END_TO_END) | set(PER_LAYER), printed)

    def test_end_to_end_names_match_benchmark_json(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                record = run.execute(name, 3, seconds=1, trace=0, min_ops=2)
                self._check(record, END_TO_END)
                for metric in ("main_per_s", "control_per_s", "op_p50_ms", "setup_s"):
                    self.assertGreater(record["metrics"][metric]["value"], 0)

    def test_per_layer_names_match_and_traced_equals_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                record = run.execute(name, 3, seconds=1, trace=1)
                self._check(record, PER_LAYER)
                m = record["metrics"]
                self.assertEqual(m["failed_share"]["value"], 0.0)
                self.assertTrue((ROOT / record["spans_file"]).is_file())
                if name == "closed_form":
                    self.assertGreater(m["dynamics.analyze_gap.calls"]["value"], 0)
                    self.assertEqual(m["supervisor.decide.calls"]["value"], 0)
                elif name == "supervised":
                    self.assertGreater(m["dynamics.refine_crossing.calls"]["value"], 0)
                    self.assertEqual(m["dynamics.analyze_gap.calls"]["value"], 0)
                else:
                    self.assertGreater(m["trajio.bytes"]["value"], 0)
                    self.assertGreater(m["audit.evaluate_per_sample"]["value"], 1)

    def test_counts_repeat_for_a_seed(self):
        a = run.execute("supervised", 4, seconds=1, trace=1)["metrics"]
        b = run.execute("supervised", 4, seconds=1, trace=1)["metrics"]
        counts = [k for k, m in a.items() if m["unit"] == "count"]
        self.assertTrue(counts)
        self.assertEqual({k: a[k] for k in counts}, {k: b[k] for k in counts})


if __name__ == "__main__":
    unittest.main()
