"""The three benchmark workloads.

Each workload turns the benchmark seed into rsskit inputs, runs one
operation at a time through ``run_op(i)`` and checks that operation's
outputs.  Operation ``i`` depends only on the seed and ``i``, so a traced
and an untraced run of the same operation see the same inputs.

rsskit is called through its module attributes (``verify.verify_...``),
never through names imported into this file, so that the tracer's
rebinding of those attributes reaches the calls made from here.

Why these three (see README.md for the full layer table):

- closed_form: the closed-form engine (rule, dynamics, verify sampler)
  with no supervisor, audit or file work.  Safety scans every interval
  without a root; falsification exits at the first root.
- supervised: the fixed-step closed loop (supervisor, response,
  advance_vehicle, audit.check_compliance) with no closed-form gap
  analysis and no file work.
- audit_io: the simulate --out -> audit --out --metric-csv flow over
  long dt = 0.01 trajectories: audit on a large working set, CSV writes
  beside reads, and report hashing of a large payload.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from time import perf_counter

from rsskit import cli, core, dynamics, rule, supervisor, trajio, verify

# The paper's reference parameter set (criterion 1: d_min(20, 20) = 34.135 m).
PARAMS_RECORD = {"rho": 0.3, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0}


def op_seed(seed, i):
    """Seed of operation i; independent of how many operations run."""
    return random.Random(f"{seed}/{i}").getrandbits(63)


def _failure(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _timed(r, label, fn, *args, **kwargs):
    """(fn's result, or None if it raised, and its seconds); a raise is
    recorded as a problem of r and the run continues."""
    t0 = perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # counted as failed work by the caller
        r.problems.append(f"{label} raised: {_failure(exc)}")
        out = None
    return out, perf_counter() - t0


class OpResult:
    """Outcome of one operation.

    main/control are (work units, seconds) pairs, or None when the
    operation has no such part; op_s is the operation's timed span.
    outcome is what a traced and an untraced run must agree on.
    """

    __slots__ = ("attempted", "failed", "problems", "main", "control", "op_s",
                 "outcome", "inputs")

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.main = None
        self.control = None
        self.op_s = 0.0
        self.outcome = None
        self.inputs = {}


class ClosedForm:
    """Safety-theorem campaign then below-threshold falsification.

    The shape of acceptance criteria 3 and 4: grid plus random starts,
    each random start with one randomized admissible behaviour, then a
    falsification campaign on the same seed.
    """

    name = "closed_form"
    labels = {
        "main_per_s": "safety_trials_per_s",
        "control_per_s": "falsify_trials_per_s",
        "op": "campaign pair (safety then falsification)",
    }
    safety_trials = 500
    falsify_trials = 1000
    trace_ops_per_s = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params = core.validate_params(PARAMS_RECORD)
        self.static_inputs = {}

    def run_op(self, i):
        s = op_seed(self.seed, i)
        safety_cfg = verify.CampaignConfig(seed=s, n_trials=self.safety_trials)
        falsify_cfg = verify.CampaignConfig(
            seed=s, n_trials=self.falsify_trials, include_grid=False
        )
        r = OpResult()
        safety, safety_s = _timed(
            r, f"op {i} safety campaign", verify.verify_safety_theorem,
            self.params, safety_cfg)
        falsify, falsify_s = _timed(
            r, f"op {i} falsification", verify.falsify_below_threshold,
            self.params, falsify_cfg)
        r.op_s = safety_s + falsify_s

        if safety is None or safety.trials_run < self.safety_trials:
            r.attempted += self.safety_trials
            r.failed += self.safety_trials
            if safety is not None:
                r.problems.append(f"op {i} safety ran {safety.trials_run} trials")
        else:
            r.attempted += safety.trials_run
            r.failed += len(safety.counterexamples)
            r.main = (safety.trials_run, safety_s)
            r.inputs["safety_trials"] = safety.trials_run
            for case, n in safety.cases_seen.items():
                r.inputs[case.lower()] = n
        if falsify is None or falsify.trials_run != self.falsify_trials:
            r.attempted += self.falsify_trials
            r.failed += self.falsify_trials
            if falsify is not None:
                r.problems.append(f"op {i} falsification ran {falsify.trials_run} trials")
        else:
            r.attempted += falsify.trials_run
            r.failed += len(falsify.counterexamples)
            r.control = (falsify.trials_run, falsify_s)
            r.inputs["falsify_trials"] = falsify.trials_run
        r.outcome = (
            safety.to_dict() if safety is not None else None,
            falsify.to_dict() if falsify is not None else None,
        )
        return r


class Supervised:
    """Adversarial AC against the worst-case POV, then the negative control.

    The shape of acceptance criterion 7: default supervisor config and
    sim_dt, check_compliance on every supervised episode, and the same
    starts run without the supervisor, where collisions are expected.
    """

    name = "supervised"
    labels = {
        "main_per_s": "supervised_episodes_per_s",
        "control_per_s": "negative_episodes_per_s",
        "op": "campaign pair (supervised then negative control)",
    }
    episodes = 40
    trace_ops_per_s = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params = core.validate_params(PARAMS_RECORD)
        self.sup_cfg = supervisor.SupervisorConfig()
        self.static_inputs = {}

    def run_op(self, i):
        cfg = verify.CampaignConfig(seed=op_seed(self.seed, i), n_trials=self.episodes)
        r = OpResult()
        sup, sup_s = _timed(
            r, f"op {i} supervised campaign", verify.verify_supervised_safety,
            self.params, self.sup_cfg, cfg)
        neg, neg_s = _timed(
            r, f"op {i} negative control", verify.verify_supervised_safety,
            self.params, self.sup_cfg, cfg, supervised=False)
        r.op_s = sup_s + neg_s

        r.attempted = self.episodes
        if sup is None or sup.trials_run != self.episodes:
            r.failed = self.episodes
            if sup is not None:
                r.problems.append(f"op {i} supervised ran {sup.trials_run} episodes")
        else:
            r.failed = sup.stats["collisions"] + sup.stats["noncompliant"]
            r.main = (sup.trials_run, sup_s)
            r.inputs["supervised_episodes"] = sup.trials_run
            r.inputs["bc_engagements"] = sup.stats["bc_engagements"]
        if neg is not None and neg.trials_run == self.episodes:
            r.control = (neg.trials_run, neg_s)
            r.inputs["negative_episodes"] = neg.trials_run
            if neg.stats["collisions"] < 1:
                r.problems.append(f"op {i} negative control recorded no collision")
        elif neg is not None:
            r.problems.append(f"op {i} negative control ran {neg.trials_run} episodes")
        r.outcome = (
            sup.to_dict() if sup is not None else None,
            neg.to_dict() if neg is not None else None,
        )
        return r


BENIGN = "benign"
ADVERSARIAL = "adversarial"
UNSUPERVISED = "unsupervised"
KINDS = (BENIGN, ADVERSARIAL, UNSUPERVISED)
# Exit code and (compliant, liability) the audit must report for each kind.
EXPECTED = {
    BENIGN: (cli.EXIT_OK, True, "None"),
    ADVERSARIAL: (cli.EXIT_OK, True, "None"),
    UNSUPERVISED: (cli.EXIT_PROPERTY_FAILED, False, "SvLiable"),
}
TRAJ_HEADER = "t,x_f,v_f,x_r,v_r,a_r,mode"


def _sig9(x):
    return float(f"{x:.9g}")


class AuditIO:
    """simulate --out then audit --out --metric-csv, one trajectory per op.

    Set-up (untimed, not part of setup_s) records a fixed set of
    trajectories with run_supervised at dt = 0.01: a third supervised
    with the benign AC, a third supervised with the adversarial AC, and a
    third unsupervised with the adversarial AC, which collide so the
    liability path runs.  Starts are stratified over the velocity and
    margin ranges, so the set's size distribution, and with it the
    per-trajectory percentiles, barely moves with the seed while the
    states themselves do.  Each op writes one trajectory CSV and runs the
    audit subcommand of the CLI on it.
    """

    name = "audit_io"
    labels = {
        "main_per_s": "audit_samples_per_s",
        "control_per_s": "audit_samples_per_s on unsupervised (liability) trajectories",
        "op": "trajectory (write, read, audit, report, metric CSV)",
    }
    per_kind = 48
    dt = 0.01
    v_range = (8.0, 32.0)
    margin_range = (1.0, 20.0)
    trace_ops_per_s = 2.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params = core.validate_params(PARAMS_RECORD)
        self.params_path = os.path.join(workdir, "params.json")
        with open(self.params_path, "w", encoding="utf-8") as fh:
            json.dump(PARAMS_RECORD, fh)
        self.csv_path = os.path.join(workdir, "trajectory.csv")
        self.report_path = os.path.join(workdir, "audit.json")
        self.metric_path = os.path.join(workdir, "metric.csv")
        generated = self._generate()
        self.trajectories = [(kind, traj) for kind, traj, _ in generated]
        self.static_inputs = {
            "audit_samples": sum(len(traj) for _, traj, _ in generated),
            "supervised_episodes": sum(1 for kind, _, _ in generated if kind != UNSUPERVISED),
            "bc_engagements": sum(bc for kind, _, bc in generated if kind != UNSUPERVISED),
        }
        for k in KINDS:
            self.static_inputs[f"trajectories_{k}"] = sum(1 for kind, _, _ in generated if kind == k)

    def _generate(self):
        """(kind, trajectory, BC engagements) for every recorded episode."""
        rng = random.Random(f"{self.seed}/audit_io")
        params, sup_cfg = self.params, supervisor.SupervisorConfig()
        pov = dynamics.worst_case_pov(params)
        n = self.per_kind

        def strata(lo, hi):
            order = list(range(n))
            rng.shuffle(order)
            return [lo + (k + rng.random()) / n * (hi - lo) for k in order]

        out = []
        for kind in KINDS:
            ac = (supervisor.benign_ac if kind == BENIGN else supervisor.adversarial_ac)(params)
            for v_r, v_f, margin in zip(
                strata(*self.v_range), strata(*self.v_range), strata(*self.margin_range)
            ):
                gap = rule.safe_distance(params, v_r, v_f) + margin
                start = core.ScenarioState(gap, v_f, 0.0, v_r)
                trace = supervisor.run_supervised(
                    params, sup_cfg, start, ac, pov, dt=self.dt,
                    supervised=kind != UNSUPERVISED,
                )
                out.append((kind, trace.to_trajectory(), trace.bc_engagements))
        return out

    def _slot(self, i):
        n = len(self.trajectories)
        order = list(range(n))
        random.Random(f"{self.seed}/pass/{i // n}").shuffle(order)
        return order[i % n]

    def run_op(self, i):
        kind, traj = self.trajectories[self._slot(i)]
        r = OpResult()
        r.attempted = 1
        argv = ["audit", "--params", self.params_path, "--trajectory", self.csv_path,
                "--out", self.report_path, "--metric-csv", self.metric_path]
        try:
            t0 = perf_counter()
            trajio.write_trajectory(traj, self.csv_path)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            r.op_s = perf_counter() - t0
            r.outcome, problem = self._check(kind, traj, code)
        except Exception as exc:  # counted as a failed trajectory, run continues
            problem = f"raised: {_failure(exc)}"
        else:
            r.main = (len(traj), r.op_s)
            if kind == UNSUPERVISED:
                r.control = (len(traj), r.op_s)
        if problem:
            r.failed = 1
            r.problems.append(f"op {i} ({kind}, {len(traj)} samples): {problem}")
        return r

    def _check(self, kind, traj, code):
        """(outcome, problem or None) from the op's files.

        The verdict must be the expected one for the kind, the trajectory
        CSV must hold every sample at 9 significant digits, and the audit
        and metric CSV must cover exactly the samples written.
        """
        want_code, want_compliant, want_liability = EXPECTED[kind]
        with open(self.report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        outcome = report["outcome"]
        result = (code, report["config_hash"], outcome)
        if (code, outcome["compliant"], outcome["liability"]) != EXPECTED[kind]:
            return result, (f"verdict (exit {code}, compliant {outcome['compliant']}, "
                    f"liability {outcome['liability']}), expected "
                    f"(exit {want_code}, compliant {want_compliant}, "
                    f"liability {want_liability})")
        with open(self.csv_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != TRAJ_HEADER or len(lines) != len(traj) + 1:
            return result, "trajectory CSV header or row count differs"
        written_t = []
        for line, s in zip(lines[1:], traj.samples):
            f = line.split(",")
            st = s.state
            want = (s.t, st.x_f, st.v_f, st.x_r, st.v_r, s.a_r)
            if f[6] != s.mode or any(float(a) != _sig9(b) for a, b in zip(f[:6], want)):
                return result, f"trajectory CSV row {line!r} is not the sample at 9 digits"
            written_t.append(float(f[0]))
        read_t = [row["t"] for row in outcome["per_sample"]]
        if read_t != written_t:
            return result, "audited sample times differ from the written CSV"
        with open(self.metric_path, "r", encoding="utf-8") as fh:
            metric_t = [float(line.split(",", 1)[0]) for line in fh.read().splitlines()[1:]]
        if metric_t != written_t:
            return result, "metric CSV sample times differ from the written CSV"
        return result, None


WORKLOADS = {w.name: w for w in (ClosedForm, Supervised, AuditIO)}
