"""Fuzz of `rsskit audit`, `rsskit safe-distance`, `rsskit simulate`,
`rsskit verify` and `rsskit falsify`: generated argv and parameter,
trajectory, campaign and supervisor files, valid and not.

Whatever the input, the exit code is one of 0/1/2/3, nothing escapes as a
traceback, and the verdict exits (0 and 1) agree with the evaluate-based
reference compliance check on the same file: exit 1 only for a trajectory
that really is non-compliant.  safe-distance exits 0 or 2, and on 0 prints
the d_min of rule.safe_distance.  simulate exits 0, 2 or 3, and 0 only
on a finite positive step and a finite horizon >= 0.  verify and falsify
print "error:" on 2 and 3, and on 0 and 1 write a report that parses,
with counterexamples exactly on 1.
"""
import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, event, given, settings, strategies as st

from rsskit.cli import main
from rsskit.core import AC, BC, load_params
from rsskit.rule import safe_distance
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
    kind = draw(st.sampled_from(["paper"] * 5 + ["random"] * 3 + ["broken", "misspelled", "text"]))
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
    elif kind == "misspelled":  # an unknown key next to valid ones
        record = dict(PAPER)
        record[draw(st.sampled_from(["vehicle_lenght", "a_brake", "Rho", ""]))] = 4.5
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
        code, out, err = _run(argv)
        assert code in (0, 1, 2, 3), (code, err)
        if code in (0, 1):
            traj = reference_read_trajectory(traj_path, load_params(params_path))
            compliant, _ = reference_check_compliance(traj, 0.2 if tol is None else float(tol))
            assert code == (0 if compliant else 1)
            assert f"compliant: {compliant}" in out


_SPEED = st.one_of(st.floats(0.0, 60.0), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e200, 1e154, -1.0, -0.0, -30.0]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(params_text(), _SPEED, _SPEED)
def test_safe_distance_cli_exits_0_or_2_without_traceback(params, v_r, v_f):
    with tempfile.TemporaryDirectory() as tmp:
        params_path = os.path.join(tmp, "params.json")
        with open(params_path, "wb") as fh:
            fh.write(params)
        # "--v-r=-inf": a separate "-inf" would read as an option
        code, out, err = _run(["safe-distance", "--params", params_path,
                               f"--v-r={v_r!r}", f"--v-f={v_f!r}"])
        assert code in (0, 2), (code, err)
        if code == 0:  # a misspelled key must not pass as vehicle_length 0
            assert set(json.loads(params)) <= {*PAPER, "vehicle_length"}
            d_min = safe_distance(load_params(params_path), v_r, v_f)
            assert out.splitlines()[0] == f"d_min = {d_min:.9g} m"


_STEP_BAD = [math.nan, math.inf, -math.inf, 0.0, -0.0, -0.05, -1e-300]
_HORIZON_BAD = [math.nan, math.inf, -math.inf, -1.0, -1e-300, -20.0, -0.5, -5e-3]


@st.composite
def simulate_argv(draw):
    """simulate's numbers and choices, with dt >= 0.01 and t_end <= 20 (or
    the default horizon of slow runs) except for the invalid values, so
    that no example runs a long loop: (argv tail, dt, t_end or None)."""
    dt = draw(st.sampled_from(_STEP_BAD) if _rarely(draw, 8) else st.floats(0.01, 0.5))
    if _rarely(draw, 4):
        t_end = draw(st.sampled_from(_HORIZON_BAD))
    else:
        t_end = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 20.0)))
    top = 10.0 if t_end is None else 40.0
    v_r, v_f = (draw(_SPEED if _rarely(draw, 15) else st.floats(0.0, top)) for _ in range(2))
    if _rarely(draw, 15):
        gap = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]))
    else:  # d_min is at most 218 m at 40 m/s with the paper parameters
        gap = draw(st.floats(-5.0, 250.0) if _rarely(draw, 4) else st.floats(250.0, 600.0))
    ac = draw(st.sampled_from(["timid", ""]) if _rarely(draw, 15)
              else st.sampled_from(["adversarial", "benign"]))
    pov = draw(st.sampled_from(["random:x", "best", "random:-1"]) if _rarely(draw, 15)
               else st.sampled_from(["worst", "gentle", "random:3", "random:12"]))
    argv = [f"--gap={gap!r}", f"--v-r={v_r!r}", f"--v-f={v_f!r}", f"--dt={dt!r}",
            "--ac", ac, "--pov", pov]
    if t_end is not None:
        argv.append(f"--t-end={t_end!r}")
    if draw(st.booleans()):
        argv.append("--no-supervisor")
    return argv, dt, t_end


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(params_text(), simulate_argv())
def test_simulate_cli_exits_0_2_or_3_without_traceback(params, drawn):
    argv, dt, t_end = drawn
    with tempfile.TemporaryDirectory() as tmp:
        params_path, out = os.path.join(tmp, "params.json"), os.path.join(tmp, "t.csv")
        with open(params_path, "wb") as fh:
            fh.write(params)
        code, stdout, err = _run(["simulate", "--params", params_path, "--out", out] + argv)
        assert code in (0, 2, 3), (code, err)
        if code == 0:  # a run only on a valid step and horizon
            assert 0.0 < dt < math.inf and (t_end is None or 0.0 <= t_end < math.inf)
            assert f"-> {out}" in stdout and os.path.exists(out)


def _run(argv):
    """main(argv) as (exit code, stdout, stderr), with no traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    event(f"exit {code}")
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


_CAMPAIGN_BAD = st.one_of(st.none(), st.booleans(), _TEXT, st.lists(st.integers(), max_size=2),
                          st.sampled_from([math.nan, math.inf, -math.inf, -1, 0.5]))


@st.composite
def campaign_text(draw):
    """A campaign file: up to 20 trials at a sim_dt of at least 0.02 s,
    speeds up to 1e300, margin_max from 1e-300 to 1e300, and rarely a bad
    value or key or text that is not a mapping."""
    if _rarely(draw, 25):
        return draw(st.sampled_from([b"", b"[1]", b"null", b"{", b"\xff"]))
    record = {}
    if draw(st.booleans()):
        record["seed"] = draw(st.integers(0, 2 ** 32))
    record["n_trials"] = draw(st.integers(0, 20))
    kind = draw(st.sampled_from(["paper"] * 4 + ["huge", "tiny"]))
    if kind == "huge":
        v = draw(st.sampled_from([1e9, 1e100, 1e154, 1.2e154, 1e200, 1e300]))
        record["v_min"], record["v_max"] = v * draw(st.floats(0.0, 1.0)), v
    elif kind == "tiny" or draw(st.booleans()):
        lo = draw(st.floats(0.0, 60.0 if kind == "paper" else 1e-3))
        record["v_min"], record["v_max"] = lo, lo + draw(st.floats(0.0, 60.0))
    if draw(st.booleans()):
        record["margin_max"] = draw(st.sampled_from([1e-300, 1e-12, 1e-9, 1e-3, 1.0, 50.0,
                                                     1e10, 1e300]))
    if draw(st.booleans()):
        record["sim_dt"] = draw(st.floats(0.02, 0.3))
    if _rarely(draw, 4):
        record["a_fwd_max"] = draw(st.floats(-10.0, 5.0))
    if _rarely(draw, 4):
        lo = draw(st.integers(1, 6))
        record["pov_segments_min"], record["pov_segments_max"] = lo, lo + draw(st.integers(0, 6))
    record["include_grid"] = draw(st.booleans())
    if _rarely(draw, 6):
        record[draw(st.sampled_from(sorted(record)))] = draw(_CAMPAIGN_BAD)
    if _rarely(draw, 20):  # an int too big for a float; never n_trials, whose loop it would run
        record[draw(st.sampled_from(["seed", "v_max", "margin_max", "pov_segments_max"]))] = 10 ** 400
    if _rarely(draw, 20):
        record[draw(st.sampled_from(["bogus", "trials", "sim-dt", ""]))] = 1
    return json.dumps(record).encode()


@st.composite
def supervisor_text(draw):
    """None (no file) or a supervisor config file, rarely a bad one."""
    if draw(st.booleans()):
        return None
    if _rarely(draw, 20):
        return draw(st.sampled_from([b"", b"[]", b"{", b'{"periods": 0.1}']))
    record = {}
    if draw(st.booleans()):
        record["period"] = draw(st.floats(0.01, 0.5))
    if draw(st.booleans()):
        record["switchback_margin"] = draw(st.floats(0.0, 5.0))
    if _rarely(draw, 4):
        lo = draw(st.floats(-10.0, 2.0))
        record["sv_command_bounds"] = [lo, lo + draw(st.floats(0.0, 4.0))]
    if _rarely(draw, 10):
        record[draw(st.sampled_from(["period", "switchback_margin", "sv_command_bounds"]))] = (
            draw(_CAMPAIGN_BAD))
    return json.dumps(record).encode()


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params_text(), campaign_text(), supervisor_text(),
       st.sampled_from(["falsify"] * 3 + ["safety"] * 3 + ["supervised"] * 3 + ["bad"]),
       st.integers(0, 24))
def test_campaign_cli_exits_0_to_3_without_traceback(params, campaign, supervisor, kind, stray):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("params", params), ("campaign", campaign), ("sup", supervisor)):
            if text is not None:
                paths[name] = os.path.join(tmp, f"{name}.json")
                with open(paths[name], "wb") as fh:
                    fh.write(text)
        out = os.path.join(tmp, "report.json")
        argv = ["falsify" if kind == "falsify" else "verify", "--params", paths["params"],
                "--campaign", paths["campaign"], "--out", out]
        if kind != "falsify":
            argv += ["--kind", "chaos" if kind == "bad" else kind]
        if "sup" in paths and kind != "falsify":
            argv += ["--supervisor-config", paths["sup"]]
        if stray == 0:  # an absent file, or an argument the command does not take
            argv[4] = os.path.join(tmp, "absent.json")
        elif stray == 1:
            argv.append("--bogus")
        code, _, err = _run(argv)
        assert code in (0, 1, 2, 3), (code, err)
        if code in (2, 3):
            assert "error:" in err
        else:
            with open(out, encoding="utf-8") as fh:
                outcome = json.load(fh)["outcome"]
            assert (outcome["n_counterexamples"] > 0) == (code == 1)
