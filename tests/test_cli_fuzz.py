"""Fuzz of `rsskit audit`: generated argv, parameter files and trajectory
files, valid and not.

Whatever the input, the exit code is one of 0/1/2/3, nothing escapes as a
traceback, and the verdict exits (0 and 1) agree with the evaluate-based
reference compliance check on the same file: exit 1 only for a trajectory
that really is non-compliant.
"""
import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, event, given, settings, strategies as st

from rsskit.cli import main
from rsskit.core import AC, BC, load_params
from rsskit.trajio import HEADER

from test_audit_differential import reference_read_trajectory
from test_margin_paths import reference_check_compliance

PAPER = {"rho": 0.3, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0}


def _rarely(draw, n):
    """True about once in n draws."""
    return draw(st.sampled_from([False] * (n - 1) + [True]))


def _num(draw, lo, hi):
    """A value in [lo, hi], or rarely any float, NaN and inf included."""
    return draw(st.floats() if _rarely(draw, 25) else st.floats(lo, hi))


_TEXT = st.sampled_from(["", "abc", "1e999", "-0", "0x1", " 1 ", "1_0", "nan", "-inf", "1,2"])


@st.composite
def params_text(draw):
    kind = draw(st.sampled_from(["paper"] * 5 + ["random"] * 3 + ["broken", "text"]))
    if kind == "paper":
        record = dict(PAPER, vehicle_length=draw(st.sampled_from([0.0, 4.5])))
    elif kind == "random":
        record = {"rho": _num(draw, 0.05, 1.0), "a_max": _num(draw, 0.0, 4.0),
                  "a_brake_min": _num(draw, 0.5, 4.0), "a_brake_max": _num(draw, 4.5, 12.0),
                  "vehicle_length": _num(draw, 0.0, 6.0)}
    elif kind == "broken":
        record = dict(PAPER)
        key = draw(st.sampled_from(sorted(PAPER) + ["vehicle_length"]))
        record[key] = draw(st.one_of(st.none(), st.booleans(), _TEXT, st.floats(), st.integers()))
    else:
        return draw(st.sampled_from([b"", b"{", b"[]", b"null", b'{"rho": 0.3}', b"\xff\xfe"]))
    return json.dumps(record).encode()


@st.composite
def trajectory_text(draw):
    """A plausible trajectory file, in about half of the draws with one fault."""
    rows = []
    t, x_r = draw(st.floats(-5.0, 5.0)), draw(st.floats(-100.0, 100.0))
    # gaps well above d_min (up to 218 m at 40 m/s) give compliant files too
    gaps = (230.0, 400.0) if draw(st.booleans()) else (-5.0, 120.0)
    for _ in range(draw(st.integers(1, 12))):
        t += draw(st.floats(1e-3, 0.5))
        x_r += draw(st.floats(0.0, 5.0))
        values = [t, x_r + draw(st.floats(*gaps)), draw(st.floats(0.0, 40.0)), x_r,
                  draw(st.floats(0.0, 40.0)), draw(st.floats(-10.0, 3.0))]
        rows.append([repr(v) if draw(st.booleans()) else f"{v:.9g}" for v in values]
                    + [draw(st.sampled_from([AC, BC]))])
    header = HEADER
    row = draw(st.sampled_from(rows))
    fault = draw(st.sampled_from([None] * 8 + ["header", "value", "value", "value", "text",
                                                "mode", "count", "order", "empty"]))
    if fault == "header":
        header = draw(st.sampled_from(["", "t,x_f", HEADER.upper(), "# only a comment"]))
    elif fault == "value":  # any float, huge, NaN and inf included
        row[draw(st.integers(0, 5))] = repr(draw(st.floats()))
    elif fault == "text":
        row[draw(st.integers(0, 5))] = draw(_TEXT)
    elif fault == "mode":
        row[6] = draw(st.sampled_from([" BC", "XX", "", "ac"]))
    elif fault == "count":
        row[:] = row[:draw(st.integers(1, 6))] + draw(st.lists(_TEXT, max_size=2))
    elif fault == "order":
        row[0] = rows[0][0] if row is not rows[0] else repr(draw(st.floats(-1e9, 1e9)))
    elif fault == "empty":
        rows = []
    lines = [header]
    for fields in rows:
        lines.append(",".join(fields))
        if _rarely(draw, 8):
            lines.append(draw(st.sampled_from(["", "# note", "  ", "#,1,2"])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def audit_options(draw):
    """(--accel-tol text or None, --out?, --metric-csv?, a stray argument or
    None, whether the trajectory file is absent)"""
    kind = draw(st.sampled_from(["default"] * 5 + ["valid"] * 3 + ["junk"] * 2))
    if kind == "default":
        tol = None
    elif kind == "valid":
        tol = repr(draw(st.floats(0.0, 2.0)))
    else:
        tol = draw(st.one_of(_TEXT, st.floats().map(repr)))
    stray = draw(st.sampled_from(["--bogus", "--out", "extra"])) if _rarely(draw, 25) else None
    return tol, draw(st.booleans()), draw(st.booleans()), stray, _rarely(draw, 25)


@settings(derandomize=True, max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params_text(), trajectory_text(), audit_options())
def test_audit_cli_exits_0_to_3_without_traceback(params, trajectory, options):
    tol, out_file, metric_file, stray, absent = options
    with tempfile.TemporaryDirectory() as tmp:
        params_path, traj_path = os.path.join(tmp, "params.json"), os.path.join(tmp, "t.csv")
        with open(params_path, "wb") as fh:
            fh.write(params)
        with open(traj_path, "w", encoding="utf-8") as fh:
            fh.write(trajectory)
        argv = ["audit", "--params", params_path, "--trajectory",
                os.path.join(tmp, "absent.csv") if absent else traj_path]
        if tol is not None:
            argv += ["--accel-tol", tol]
        if out_file:
            argv += ["--out", os.path.join(tmp, "report.json")]
        if metric_file:
            argv += ["--metric-csv", os.path.join(tmp, "metric.csv")]
        if stray:
            argv.append(stray)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        event(f"exit {code}")
        assert code in (0, 1, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code in (0, 1):
            traj = reference_read_trajectory(traj_path, load_params(params_path))
            compliant, _ = reference_check_compliance(traj, 0.2 if tol is None else float(tol))
            assert code == (0 if compliant else 1)
            assert f"compliant: {compliant}" in out.getvalue()
