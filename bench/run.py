#!/usr/bin/env python3
"""rsskit benchmark harness.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Runs one workload (closed_form, supervised or audit_io; see workloads.py
and README.md) in this single process against the rsskit sources in
../src, checks every operation's outputs, writes the results with the
environment to bench/results/, and prints one ``name = value unit``
line per metric followed by a JSON object as the last line of stdout.

--trace 0 measures the end-to-end metrics: operations run back to back
until --seconds have passed (and at least MIN_OPS have run), untraced.
Each operation's time is scaled to a reference host speed measured
around it (hostspeed.py); the unscaled wall-clock figures are printed on
a comment line and kept in the results file.
--trace 1 measures the per-layer metrics: a fixed number of operations,
each run once untraced and once with tracer.py wrapping rsskit's public
functions, so call counts repeat exactly for a seed and the two runs'
outcomes can be compared.

Exit codes: 0 when every output check passed, 1 when one failed (the
result line still prints, with "correct": false), 2 when the rsskit
sources are missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import hostspeed
from tracer import LAYERS, Tracer, wrapper_cost_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# p90 is reported, so at least ten operations must lie beyond it.
MIN_OPS = 100
# setup_s is the median of this many probes, each scaled to the reference host
# speed like the operations and spread evenly over the run so
# that they sample the same host load as the operations.
SETUP_PROBES = 10

# What setup_s times, in a fresh interpreter: importing the package and
# building the parameter and configuration objects a run needs.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rsskit.cli
from rsskit.core import validate_params
from rsskit.supervisor import SupervisorConfig
from rsskit.verify import CampaignConfig
import json
params = validate_params(json.loads(sys.argv[2]))
SupervisorConfig().validate_against(params)
CampaignConfig(seed=0, n_trials=1000)
print(time.perf_counter() - t0)
"""


def percentile(values, q):
    """Nearest-rank percentile: at least (1 - q) * n values lie at or beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_probe(params_record):
    """Seconds a fresh interpreter takes to import rsskit and build configs."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(params_record)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD commit read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "rsskit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Run:
    """Totals over the operations of one run.

    main, control, op_s and setup_s hold wall-clock figures.  scales holds,
    for each operation, the reference kernel time over the kernel time
    measured around it (1.0 when not measured); main, control and setup_s
    pair each figure with its scale.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.main = []
        self.control = []
        self.op_s = []
        self.scales = []
        self.kernel_s = []
        self.setup_s = []
        self.inputs = Counter()

    def add(self, r, scale=1.0):
        self.attempted += r.attempted
        self.failed += r.failed
        self.problems.extend(r.problems)
        if r.main:
            self.main.append((r.main[0] / r.main[1], scale))
        if r.control:
            self.control.append((r.control[0] / r.control[1], scale))
        self.op_s.append(r.op_s)
        self.scales.append(scale)
        self.inputs.update(r.inputs)


def input_metrics(wl, run):
    """Input properties, so a change of inputs is not read as a speed change."""
    inputs = dict(run.inputs)
    inputs.update(wl.static_inputs)
    episodes = inputs.get("supervised_episodes", 0)
    m = {"inputs.ops": (len(run.op_s), "count")}
    for key in ("safety_trials", "falsify_trials", "case1", "case2", "case3", "case4",
                "supervised_episodes", "negative_episodes", "audit_samples",
                "trajectories_benign", "trajectories_adversarial",
                "trajectories_unsupervised"):
        m[f"inputs.{key}"] = (inputs.get(key, 0), "count")
    m["inputs.bc_engagements_per_episode"] = (
        inputs.get("bc_engagements", 0) / episodes if episodes else 0.0, "ratio"
    )
    m["failed_share"] = (run.failed / run.attempted if run.attempted else 0.0, "ratio")
    return m


def run_timed(wl, seconds, min_ops, params_record):
    """Untraced operations back to back until the time is up, with the
    setup probes run between them.

    The reference kernel runs before and after every operation and every
    setup probe; the slower of the two readings gives the host speed it
    ran at.  A few-ms kernel run can land in a moment when the host is
    fast, while an operation of tens of ms almost always sees the slow
    spells, so the slower reading is the closer one.
    """
    run = Run()
    cap = 2 * seconds + 30  # min_ops must not stretch a run on a slow host
    hostspeed.kernel_seconds()  # warm-up
    start = time.perf_counter()
    i = 0
    before = hostspeed.kernel_seconds()
    while True:
        elapsed = time.perf_counter() - start
        if len(run.setup_s) < SETUP_PROBES and (
            elapsed >= len(run.setup_s) * seconds / SETUP_PROBES
        ):
            setup_s = setup_probe(params_record)
            after = hostspeed.kernel_seconds()
            run.setup_s.append((setup_s, hostspeed.REFERENCE_S / max(before, after)))
            before = after
        if (elapsed >= seconds and i >= min_ops and len(run.setup_s) == SETUP_PROBES
                or elapsed >= cap):
            return run
        r = wl.run_op(i)
        after = hostspeed.kernel_seconds()
        r.outcome = None
        run.add(r, hostspeed.REFERENCE_S / max(before, after))
        run.kernel_s.append(after)
        before = after
        i += 1


def _median(values):
    return statistics.median(values) if values else 0.0


def timing_metrics(run, scaled):
    """Set-up time, throughputs and operation-time percentiles, scaled to
    the reference host speed or as measured."""
    setup_s = [t * s if scaled else t for t, s in run.setup_s]
    main = [v / s if scaled else v for v, s in run.main]
    control = [v / s if scaled else v for v, s in run.control]
    op_s = [t * s if scaled else t for t, s in zip(run.op_s, run.scales)]
    return {
        "setup_s": (_median(setup_s), "s"),
        "main_per_s": (_median(main), "1/s"),
        "control_per_s": (_median(control), "1/s"),
        "op_p50_ms": (_median(op_s) * 1e3, "ms"),
        "op_p90_ms": (percentile(op_s, 0.9) * 1e3 if op_s else 0.0, "ms"),
    }


def end_to_end_metrics(run):
    return {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **timing_metrics(run, scaled=True),
    }


def run_traced(wl, seconds, tracer):
    """Each operation untraced and traced, alternating which goes first."""
    traced = Run()
    untraced_s = traced_s = 0.0
    n_ops = max(2, round(seconds * wl.trace_ops_per_s))
    for i in range(n_ops):
        results = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                token = tracer.begin(f"bench.{wl.name}.op", i)
                try:
                    results[True] = wl.run_op(i)
                finally:
                    tracer.end(token)
                    tracer.uninstall()
            else:
                results[False] = wl.run_op(i)
        plain, seen = results[False], results[True]
        if (plain.outcome, plain.attempted, plain.failed) != (
            seen.outcome, seen.attempted, seen.failed
        ):
            traced.problems.append(f"op {i}: traced outcome differs from untraced")
        seen.outcome = None
        traced.add(seen)
        untraced_s += plain.op_s
        traced_s += seen.op_s
    overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    return traced, overhead


def layer_metrics(tracer, overhead, wrapper_ns):
    st = tracer.stats
    extra = tracer.extra
    m = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            m[f"{name}.calls"] = (st[name].calls, "count")
            m[f"{name}.self_s"] = (st[name].self_ns / 1e9, "s")

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(incl_ns, nested, calls, scale):
        # Inclusive time per call less the measured cost of the wrappers
        # nested inside it, so the table reads close to an untraced call.
        return ratio(incl_ns - nested * wrapper_ns, calls) / scale

    decide = sorted(st["supervisor.decide"].durations)
    audit = st["audit.audit"]
    m.update({
        "dynamics.profile_state_per_analyze": (
            ratio(st["dynamics.profile_state"].calls, st["dynamics.analyze_gap"].calls),
            "ratio"),
        "supervisor.decide.p50_us": (percentile(decide, 0.5) / 1e3 if decide else 0.0, "us"),
        "supervisor.decide.p99_us": (percentile(decide, 0.99) / 1e3 if decide else 0.0, "us"),
        "supervisor.steps": (extra["supervisor.steps"], "count"),
        "supervisor.bc_engagements": (extra["supervisor.bc_engagements"], "count"),
        "audit.evaluate_per_sample": (
            ratio(audit.watched["rule.evaluate"], extra["audit.samples"]), "ratio"),
        "audit.compliance_per_audit": (
            ratio(audit.watched["audit.check_compliance"], audit.calls), "ratio"),
        "trajio.bytes": (extra["trajio.bytes"], "B"),
        "report.bytes": (extra["report.bytes"], "B"),
        "trace.overhead_share": (overhead, "ratio"),
        "trace.wrapper_ns": (wrapper_ns, "ns"),
    })
    for fn, scale, unit in (("rule.safe_distance", 1e3, "us"),
                            ("rule.evaluate", 1e3, "us"),
                            ("dynamics.worst_case_gap_analysis", 1e3, "us"),
                            ("audit.check_compliance", 1e6, "ms"),
                            ("audit.audit", 1e6, "ms")):
        s = st[fn]
        m[f"table.{fn.split('.')[1]}_{unit}"] = (
            per_call(s.incl_ns, s.nested, s.calls, scale), unit)
    m["table.supervised_episode_ms"] = (per_call(
        extra["episode.supervised.incl_ns"], extra["episode.supervised.nested"],
        extra["episode.supervised.calls"], 1e6), "ms")
    return m


def _as_records(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def execute(workload, seed, seconds, trace, min_ops=MIN_OPS):
    """Run one workload; returns the record written to bench/results/."""
    from workloads import PARAMS_RECORD, WORKLOADS

    cls = WORKLOADS[workload]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=RESULTS)
    try:
        wl = cls(seed, workdir)
        if trace:
            tracer = Tracer()
            run, overhead = run_traced(wl, seconds, tracer)
            metrics = layer_metrics(tracer, overhead, wrapper_cost_ns())
            metrics.update(input_metrics(wl, run))
            spans_file = RESULTS / f"{stem}.spans.jsonl"
            tracer.write_spans(spans_file)
            details = {"spans_file": str(spans_file.relative_to(ROOT))}
        else:
            run = run_timed(wl, seconds, min_ops, PARAMS_RECORD)
            metrics = end_to_end_metrics(run)
            details = {
                "inputs": _as_records(input_metrics(wl, run)),
                "wall_clock": _as_records(timing_metrics(run, scaled=False)),
                "kernel_ms": {"median": _median(run.kernel_s) * 1e3,
                              "reference": hostspeed.REFERENCE_S * 1e3},
                "per_op": {"op_s": run.op_s, "kernel_s": run.kernel_s,
                           "main_per_s": [v for v, _ in run.main],
                           "control_per_s": [v for v, _ in run.control],
                           "setup_s": [t for t, _ in run.setup_s]},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:50],
        "labels": cls.labels,
        "op_count": len(run.op_s),
        "metrics": _as_records(metrics),
        **details,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


def print_record(record):
    labels = record["labels"]
    notes = {
        "main_per_s": labels["main_per_s"],
        "control_per_s": labels["control_per_s"],
        "op_p50_ms": f"{labels['op']}, n = {record['op_count']}",
        "op_p90_ms": f"{labels['op']}, n = {record['op_count']}",
    }
    env = record["environment"]
    print(f"# rsskit benchmark: workload {record['workload']}, seed {env['seed']}, "
          f"seconds {record['seconds']}, trace {record['trace']}, "
          f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"commit {env['commit']}")
    lines = list(record["metrics"].items()) + list(record.get("inputs", {}).items())
    for name, m in lines:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']!r} {m['unit']}{note}")
    if "wall_clock" in record:
        wall = ", ".join(f"{k} {m['value']:.6g}" for k, m in record["wall_clock"].items())
        kernel = record["kernel_ms"]
        print(f"# unscaled wall clock: {wall}; reference kernel {kernel['median']:.4g} ms "
              f"(median), {kernel['reference']:.4g} ms at the reference speed")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_form", "supervised", "audit_io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not (SRC / "rsskit" / "__init__.py").is_file():
        print(f"error: rsskit sources not found under {SRC}", file=sys.stderr)
        return 2
    # One single-threaded process: keep numpy's BLAS pools at one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import rsskit

    if Path(rsskit.__file__).resolve().parent != SRC / "rsskit":
        print(f"error: imported rsskit from {rsskit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = execute(args.workload, args.seed, args.seconds, args.trace)
    print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
