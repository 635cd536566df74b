"""`rsskit audit` against a copy of its plain pipeline.

The CLI reads each trajectory with one range test per row, reuses the
audit's per-sample margins for the compliance verdicts, the liability and
the metric CSV, and hashes and lays out the report from one JSON walk.
The reference below is the pipeline it replaced, kept in this file:
read_trajectory with one check after another, audit built from its public
parts, make_report hashing canonical_json, json.dumps for the file and
rule.evaluate for the metric CSV (the last two from test_writers).  Exit code, stdout, the report file
(without its generated_at line) and the metric CSV must be identical, and
so must the message for a malformed row.
"""
import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

import pytest

from rsskit import __version__
from rsskit.audit import (
    LIABILITY_NONE,
    AuditReport,
    _principles,
    attribute_liability,
    check_compliance,
    safety_metric,
)
from rsskit.cli import EXIT_OK, EXIT_PROPERTY_FAILED, main
from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.dynamics import gentle_pov, worst_case_pov
from rsskit.errors import NoCollision, TrajectoryFormatError
from rsskit.report import canonical_json
from rsskit.rule import evaluate, safe_distance
from rsskit.supervisor import SupervisorConfig, adversarial_ac, benign_ac, run_supervised
from rsskit.trajio import HEADER, read_trajectory, write_trajectory

from test_writers import reference_dump, reference_write_metric_csv

_MODES = (AC, BC)


def reference_read_trajectory(path, params):
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != HEADER:
                    raise TrajectoryFormatError(
                        f"{path}:{lineno}: expected header {HEADER!r}, got {line!r}")
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 7:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
            try:
                t, x_f, v_f, x_r, v_r, a_r = (float(f) for f in fields[:6])
            except ValueError as exc:
                raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from exc
            for val in (t, x_f, v_f, x_r, v_r, a_r):
                if not math.isfinite(val):
                    raise TrajectoryFormatError(f"{path}:{lineno}: non-finite value {val!r}")
            if v_f < 0 or v_r < 0:
                raise TrajectoryFormatError(f"{path}:{lineno}: negative velocity")
            mode = fields[6].strip()
            if mode not in _MODES:
                raise TrajectoryFormatError(f"{path}:{lineno}: unknown mode {mode!r}")
            if samples and t <= samples[-1].t:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: timestamps must be strictly increasing")
            samples.append(TrajectorySample(t, ScenarioState(x_f, v_f, x_r, v_r), a_r, mode))
    if not header_seen:
        raise TrajectoryFormatError(f"{path}: missing header")
    if not samples:
        raise TrajectoryFormatError(f"{path}: no samples")
    return Trajectory(tuple(samples), params)


def reference_audit(traj, accel_tol):
    per_sample = tuple(
        (s.t, ev.condition_holds, ev.margin, s.mode)
        for s, ev in ((s, evaluate(traj.params, s.state)) for s in traj.samples)
    )
    compliant, violations = check_compliance(traj, accel_tol)
    _, score = safety_metric(traj)
    try:
        liability = attribute_liability(traj, accel_tol)
    except NoCollision:
        liability = LIABILITY_NONE
    return AuditReport(per_sample, compliant, tuple(violations), score, liability,
                       _principles(liability))


def reference_cli_audit(params, traj_path, report_path, metric_path, accel_tol=0.2):
    """(exit code, stdout) of the plain pipeline; writes both files."""
    traj = reference_read_trajectory(traj_path, params)
    report = reference_audit(traj, accel_tol)
    body = {
        "kind": "audit",
        "tool_version": __version__,
        "params": params.to_dict(),
        "config": {"trajectory": os.path.basename(traj_path), "accel_tol": accel_tol},
        "outcome": report.to_dict(),
    }
    body["config_hash"] = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    body["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(reference_dump(body))
    reference_write_metric_csv(traj, metric_path)
    out = [f"compliant: {report.compliant}", f"metric score: {report.metric_score:.9g} m",
           f"liability: {report.liability}"]
    out += [f"violation: [{v.t_start:.9g}, {v.t_end:.9g}] {v.reason}" for v in report.violations]
    return (EXIT_OK if report.compliant else EXIT_PROPERTY_FAILED), "\n".join(out) + "\n"


def _without_timestamp(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith('  "generated_at": ')]
    assert len(kept) == len(lines) - 1
    return "".join(kept)


def _cases():
    """36 seeded runs: benign, adversarial and colliding unsupervised, at
    vehicle_length 0 and 4.5 and dt 0.01 and 0.05, three starts each."""
    rng = random.Random(20261018)
    cases = []
    for length in (0.0, 4.5):
        params = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=length)
        for dt in (0.01, 0.05):
            for kind in ("benign", "adversarial", "unsupervised"):
                for _ in range(3):
                    v_r, v_f = rng.uniform(5.0, 30.0), rng.uniform(5.0, 30.0)
                    gap = safe_distance(params, v_r, v_f) + length + rng.uniform(0.5, 15.0)
                    ac = (benign_ac if kind == "benign" else adversarial_ac)(params)
                    pov = gentle_pov(params) if rng.random() < 0.3 else worst_case_pov(params)
                    trace = run_supervised(params, SupervisorConfig(),
                                           ScenarioState(gap, v_f, 0.0, v_r), ac, pov, dt=dt,
                                           t_end=rng.uniform(3.0, 8.0),
                                           supervised=kind != "unsupervised")
                    cases.append((kind, dt, params, trace.to_trajectory(), rng.random()))
    return cases


CASES = _cases()


def _write_with_notes(traj, path, seed):
    """The trajectory CSV with comment and blank lines spread through it."""
    write_trajectory(traj, path)
    rng = random.Random(seed)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for _ in range(rng.randrange(0, 6)):
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(["# note\n", "\n", "   \n", "#,1,2\n", "  # indented\n"]))
    path.write_text("".join(lines), encoding="utf-8")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_cases_cover_every_kind_and_verdict():
    kinds = {(kind, dt, params.vehicle_length) for kind, dt, params, _, _ in CASES}
    assert len(kinds) == 12 and len(CASES) >= 30


@pytest.mark.parametrize("i", range(len(CASES)))
def test_cli_audit_matches_the_plain_pipeline(i, tmp_path):
    kind, dt, params, traj, seed = CASES[i]
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params.to_dict()))
    path = tmp_path / "traj.csv"
    _write_with_notes(traj, path, seed)
    want = reference_cli_audit(params, str(path), tmp_path / "want.json", tmp_path / "want.csv")
    got = _run_cli(["audit", "--params", str(params_path), "--trajectory", str(path),
                    "--out", str(tmp_path / "got.json"),
                    "--metric-csv", str(tmp_path / "got.csv")])
    assert got == want
    assert _without_timestamp(tmp_path / "got.json") == _without_timestamp(tmp_path / "want.json")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert got[0] == (EXIT_PROPERTY_FAILED if kind == "unsupervised" else EXIT_OK)


# Faults a row can carry; a malformed row gets two or more of them.
def _fault_count(fields, rng):
    return fields + ["1"] * rng.choice([1, 2]) if rng.random() < 0.5 else fields[:rng.randrange(2, 7)]


def _fault_parse(fields, rng):
    fields[rng.randrange(6)] = rng.choice(["abc", "", "1,5", "0x10", "--1", "1e"])
    return fields


def _fault_non_finite(fields, rng):
    fields[rng.randrange(6)] = rng.choice(["nan", "inf", "-inf", "1e999", "-Infinity", "NaN"])
    return fields


def _fault_negative_velocity(fields, rng):
    fields[rng.choice([2, 4])] = rng.choice(["-1", "-0.001", "-1e300"])
    return fields


def _fault_mode(fields, rng):
    fields[6] = rng.choice(["XX", "ac", "", "A C", "BC,"])
    return fields


def _fault_timestamp(fields, rng):
    fields[0] = rng.choice(["0.05", "0", "-3"])
    return fields


# the field count goes last, so that the others find their columns
FAULTS = [_fault_parse, _fault_non_finite, _fault_negative_velocity, _fault_mode,
          _fault_timestamp, _fault_count]


def test_malformed_rows_raise_the_plain_message(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "bad.csv"
    messages = set()
    for _ in range(600):
        fields = ["0.1", "41", "19", "2", "20", "-4", rng.choice(_MODES)]
        chosen = set(rng.sample(range(len(FAULTS)), rng.randrange(2, len(FAULTS) + 1)))
        for i in sorted(chosen):
            fields = FAULTS[i](fields, rng)
        path.write_text(f"{HEADER}\n0.05,40,20,0,20,0.5,AC\n" + ",".join(fields)
                        + "\n0.2,43,18,4,20,-4,BC\n")
        with pytest.raises(TrajectoryFormatError) as want:
            reference_read_trajectory(path, RssParams(0.3, 2.0, 4.0, 8.0))
        with pytest.raises(TrajectoryFormatError) as got:
            read_trajectory(path, RssParams(0.3, 2.0, 4.0, 8.0))
        assert str(got.value) == str(want.value)
        messages.add(str(want.value).split(": ", 1)[1].split(" ")[0])
    # every check took precedence somewhere
    assert {"expected", "could", "non-finite", "negative", "unknown", "timestamps"} <= messages
