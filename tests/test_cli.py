import json
import math

import pytest

from rsskit import cli
from rsskit.cli import main
from rsskit.verify import CampaignOutcome

PARAMS = {"rho": 0.3, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0}


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PARAMS))
    return str(path)


def test_safe_distance_prints_value(params_file, capsys):
    rc = main(["safe-distance", "--params", params_file, "--v-r", "20", "--v-f", "20"])
    assert rc == 0
    assert "34.135" in capsys.readouterr().out


def test_params_via_env(params_file, capsys, monkeypatch):
    monkeypatch.setenv("RSSKIT_PARAMS", params_file)
    assert main(["safe-distance", "--v-r", "10", "--v-f", "0"]) == 0
    assert "17.135" in capsys.readouterr().out


def test_missing_params_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("RSSKIT_PARAMS", raising=False)
    assert main(["safe-distance", "--v-r", "10", "--v-f", "0"]) == 2


def test_negative_velocity_is_usage_error(params_file):
    assert main(["safe-distance", "--params", params_file, "--v-r", "-1", "--v-f", "20"]) == 2


def test_bad_params_file_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["safe-distance", "--params", str(path), "--v-r", "1", "--v-f", "1"]) == 2


def test_unknown_subcommand_exits_2(params_file):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_unsafe_start_exits_3(params_file, tmp_path):
    rc = main([
        "simulate", "--params", params_file,
        "--gap", "30", "--v-r", "20", "--v-f", "20",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 3


def test_simulate_audit_round_trip(params_file, tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    rc = main([
        "simulate", "--params", params_file,
        "--gap", "40", "--v-r", "20", "--v-f", "20",
        "--ac", "adversarial", "--pov", "worst",
        "--out", str(traj),
    ])
    assert rc == 0
    assert "collision: no" in capsys.readouterr().out

    report = tmp_path / "audit.json"
    metric = tmp_path / "metric.csv"
    rc = main([
        "audit", "--params", params_file, "--trajectory", str(traj),
        "--out", str(report), "--metric-csv", str(metric),
    ])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["outcome"]["compliant"] is True
    assert data["outcome"]["liability"] == "None"
    assert metric.read_text().startswith("t,margin")


def test_simulate_negative_control_then_audit_fails(params_file, tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    rc = main([
        "simulate", "--params", params_file,
        "--gap", "40", "--v-r", "20", "--v-f", "20",
        "--ac", "adversarial", "--pov", "worst", "--no-supervisor",
        "--out", str(traj),
    ])
    assert rc == 0
    assert "collision: yes" in capsys.readouterr().out
    rc = main(["audit", "--params", params_file, "--trajectory", str(traj)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "SvLiable" in out


def test_simulate_random_pov(params_file, tmp_path):
    rc = main([
        "simulate", "--params", params_file,
        "--gap", "60", "--v-r", "15", "--v-f", "15",
        "--pov", "random:3", "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 0


def test_verify_and_falsify_reports(params_file, tmp_path, capsys):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"seed": 5, "n_trials": 50}))

    out = tmp_path / "verify.json"
    rc = main(["verify", "--params", params_file, "--campaign", str(campaign),
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["outcome"]["n_counterexamples"] == 0
    assert "config_hash" in rep

    out = tmp_path / "falsify.json"
    rc = main(["falsify", "--params", params_file, "--campaign", str(campaign),
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["outcome"]["n_counterexamples"] == 0


def test_verify_supervised_kind(params_file, tmp_path):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"seed": 5, "n_trials": 10}))
    rc = main(["verify", "--params", params_file, "--campaign", str(campaign),
               "--kind", "supervised"])
    assert rc == 0


def test_verify_bad_campaign_is_usage_error(params_file, tmp_path):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"seed": 5, "bogus_key": 1}))
    assert main(["verify", "--params", params_file, "--campaign", str(campaign)]) == 2


def test_verify_rejects_pov_acceleration_below_its_braking(params_file, tmp_path, capsys):
    # sampling uniform(-a_brake_max, a_fwd_max) needs a_fwd_max >= -a_brake_max
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"a_fwd_max": -20.0, "n_trials": 200, "include_grid": False}))
    assert main(["verify", "--params", params_file, "--campaign", str(campaign)]) == 2
    err = capsys.readouterr().err
    assert "a_fwd_max" in err and "Traceback" not in err


@pytest.mark.parametrize("a_fwd_max", [-8.0, -5.0])
def test_verify_runs_with_pov_acceleration_down_to_its_braking(params_file, tmp_path, a_fwd_max):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"a_fwd_max": a_fwd_max, "n_trials": 200, "include_grid": False}))
    out = tmp_path / "verify.json"
    rc = main(["verify", "--params", params_file, "--campaign", str(campaign), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["outcome"]["n_counterexamples"] == 0


# Generator.uniform raised OverflowError when its width high - low
# overflowed: each of these ended in that traceback and exit 1
@pytest.mark.parametrize("command", [["verify"], ["falsify"], ["verify", "--kind", "supervised"]])
def test_overflowing_speed_width_is_usage_error(params_file, tmp_path, capsys, command):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"v_min": -1.7e308, "v_max": 1.7e308, "n_trials": 10}))
    assert main([*command, "--params", params_file, "--campaign", str(campaign)]) == 2
    err = capsys.readouterr().err
    assert "finite v_max - v_min" in err and "Traceback" not in err


@pytest.mark.parametrize("params,fields", [
    ({**PARAMS, "a_brake_max": 1.7e308}, {"a_fwd_max": 1.7e308}),  # POV accelerations
    ({"rho": 1e-300, "a_max": 1.7e308, "a_brake_min": 1e308, "a_brake_max": 1.5e308}, {}),
], ids=["pov", "window"])
def test_overflowing_acceleration_width_is_usage_error(tmp_path, capsys, params, fields):
    (tmp_path / "params.json").write_text(json.dumps(params))
    (tmp_path / "campaign.json").write_text(json.dumps({"n_trials": 10, **fields}))
    assert main(["verify", "--params", str(tmp_path / "params.json"),
                 "--campaign", str(tmp_path / "campaign.json")]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("segments,rc", [(3, 2), (1, 0)])
def test_overflowing_halt_time_is_usage_error(tmp_path, capsys, segments, rc):
    # v_r / a_brake_min overflows while v_r**2 / a_brake_min does not, so
    # POV cut times would be drawn from [0, inf); one segment draws none
    params = {"rho": 0.3, "a_max": 0.0, "a_brake_min": 5e-324, "a_brake_max": 1.0}
    (tmp_path / "params.json").write_text(json.dumps(params))
    (tmp_path / "campaign.json").write_text(json.dumps({
        "n_trials": 5, "include_grid": False, "v_min": 1e-10, "v_max": 1e-10,
        "pov_segments_min": 1, "pov_segments_max": segments}))
    assert main(["verify", "--params", str(tmp_path / "params.json"),
                 "--campaign", str(tmp_path / "campaign.json")]) == rc
    assert "Traceback" not in capsys.readouterr().err


def test_report_files_byte_identical_modulo_timestamp(params_file, tmp_path):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"seed": 5, "n_trials": 30}))
    bodies = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--params", params_file,
                     "--campaign", str(campaign), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        rep.pop("generated_at")
        bodies.append(json.dumps(rep, sort_keys=True))
    assert bodies[0] == bodies[1]


def test_simulate_dt_not_dividing_period_stays_safe(params_file, tmp_path, capsys):
    rc = main([
        "simulate", "--params", params_file, "--dt", "0.25",
        "--gap", "60", "--v-r", "20", "--v-f", "20", "--ac", "adversarial",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 0
    assert "collision: no" in capsys.readouterr().out


def test_simulate_dt_above_rho_is_usage_error(params_file, tmp_path):
    rc = main([
        "simulate", "--params", params_file, "--dt", "0.5",
        "--gap", "60", "--v-r", "20", "--v-f", "20", "--ac", "adversarial",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 2


# a decision period equal to rho was refused when dt divides it, because
# round(period / dt) * dt lands one ulp above rho (0.30000000000000004)
@pytest.mark.parametrize("dt", ["0.1", "0.05"])
def test_simulate_period_equal_to_rho(params_file, tmp_path, capsys, dt):
    sup = tmp_path / "supervisor.json"
    sup.write_text(json.dumps({"period": 0.3}))
    rc = main([
        "simulate", "--params", params_file, "--supervisor-config", str(sup), "--dt", dt,
        "--gap", "40", "--v-r", "20", "--v-f", "20", "--ac", "adversarial",
        "--pov", "worst", "--out", str(tmp_path / "t.csv"),
    ])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert "collision: no" in out


def test_verify_supervised_period_equal_to_rho(params_file, tmp_path, capsys):
    sup = tmp_path / "supervisor.json"
    sup.write_text(json.dumps({"period": 0.3}))
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"seed": 5, "n_trials": 20, "sim_dt": 0.1}))
    rc = main(["verify", "--params", params_file, "--campaign", str(campaign),
               "--kind", "supervised", "--supervisor-config", str(sup)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert "counterexamples: 0" in out


@pytest.mark.parametrize("period", [0.30000000000000004, 0.31])
def test_simulate_period_above_rho_is_usage_error(params_file, tmp_path, capsys, period):
    sup = tmp_path / "supervisor.json"
    sup.write_text(json.dumps({"period": period}))
    rc = main([
        "simulate", "--params", params_file, "--supervisor-config", str(sup), "--dt", "0.1",
        "--gap", "60", "--v-r", "20", "--v-f", "20", "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 2
    assert "must not exceed rho" in capsys.readouterr().err


def test_verify_mistyped_campaign_is_usage_error(params_file, tmp_path):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"n_trials": "5"}))
    assert main(["verify", "--params", params_file, "--campaign", str(campaign)]) == 2


# an upper command bound above a_max was accepted; an AC that used it drove
# the loop into InvariantBreach, which the CLI reported as exit 3
@pytest.mark.parametrize("config", [[1, 2], {"perod": 0.05}, {"sv_command_bounds": [-4, 8]}])
def test_bad_supervisor_config_is_usage_error(params_file, tmp_path, config):
    sup = tmp_path / "supervisor.json"
    sup.write_text(json.dumps(config))
    rc = main([
        "simulate", "--params", params_file, "--supervisor-config", str(sup),
        "--gap", "60", "--v-r", "20", "--v-f", "20", "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 2


# how the error message names the value each flag sets
_NAMED = {"--dt": "dt must", "--t-end": "t_end must", "--v-r": "v_r=", "--v-f": "v_f=",
          "--gap": "x_f="}


@pytest.mark.parametrize("extra", [
    ["--dt", "nan"], ["--t-end", "nan"], ["--t-end", "inf"], ["--v-r", "nan"],
    ["--gap", "nan"], ["--gap", "inf"], ["--gap=-inf"], ["--v-f", "inf"], ["--v-r", "inf"],
])
def test_simulate_non_finite_number_is_usage_error(params_file, tmp_path, capsys, extra):
    # these ended in a ValueError/OverflowError traceback with exit 1; a
    # NaN gap or infinite v_r exited 3, an infinite gap ran and exited 0,
    # and an infinite v_f exited 2 naming t_end
    args = [
        "simulate", "--params", params_file,
        "--gap", "60", "--v-r", "20", "--v-f", "20", "--ac", "adversarial",
        "--out", str(tmp_path / "t.csv"),
    ]
    assert main(args + extra) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert _NAMED[extra[0].split("=")[0]] in err


@pytest.mark.parametrize("speeds", [
    ["--v-r", "nan", "--v-f", "0"], ["--v-r", "inf", "--v-f", "0"],
    ["--v-r", "0", "--v-f", "nan"], ["--v-r", "0", "--v-f", "inf"],
])
def test_safe_distance_non_finite_speed_is_usage_error(params_file, capsys, speeds):
    # a NaN speed printed d_min = 0 m and an infinite v_r printed inf, exit 0
    assert main(["safe-distance", "--params", params_file] + speeds) == 2
    captured = capsys.readouterr()
    assert "d_min" not in captured.out
    assert "must be finite" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-5"])
def test_audit_bad_accel_tol_is_usage_error(params_file, tmp_path, capsys, tol):
    # NaN and inf ended in a ValueError traceback (exit 1) from the report
    # hash; -5 turned this compliant run into InsufficientBraking
    traj = tmp_path / "traj.csv"
    assert main([
        "simulate", "--params", params_file,
        "--gap", "60", "--v-r", "20", "--v-f", "20", "--ac", "adversarial",
        "--out", str(traj),
    ]) == 0
    capsys.readouterr()
    rc = main(["audit", "--params", params_file, "--trajectory", str(traj),
               f"--accel-tol={tol}", "--out", str(tmp_path / "audit.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "accel_tol" in err
    assert not (tmp_path / "audit.json").exists()
    assert main(["audit", "--params", params_file, "--trajectory", str(traj),
                 "--accel-tol", "0"]) == 0


@pytest.mark.parametrize("key, value", [
    ("period", True), ("switchback_margin", False), ("sv_command_bounds", [True, 1]),
])
def test_boolean_in_supervisor_config_is_usage_error(tmp_path, capsys, key, value):
    # booleans were read as 0.0 or 1.0: with rho 1.5, {"period": true} ran
    # with a 1.0 s decision period
    params = tmp_path / "params.json"
    params.write_text(json.dumps(dict(PARAMS, rho=1.5)))
    sup = tmp_path / "supervisor.json"
    sup.write_text(json.dumps({key: value}))
    rc = main([
        "simulate", "--params", str(params), "--supervisor-config", str(sup),
        "--gap", "200", "--v-r", "20", "--v-f", "20", "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 2
    assert "expected a number, got" in capsys.readouterr().err


def test_boolean_parameter_is_usage_error(tmp_path, capsys):
    # {"rho": true} was read as rho 1.0 and printed d_min = 56.5 m
    params = tmp_path / "params.json"
    params.write_text(json.dumps(dict(PARAMS, rho=True)))
    assert main(["safe-distance", "--params", str(params), "--v-r", "20", "--v-f", "20"]) == 2
    captured = capsys.readouterr()
    assert "d_min" not in captured.out
    assert "parameter 'rho' is not a number: True" in captured.err


def test_misspelled_parameter_is_usage_error(tmp_path, capsys):
    # {"vehicle_lenght": 4.5} was ignored, so the rule checked a point
    # vehicle and printed a d_min for vehicle_length 0
    params = tmp_path / "params.json"
    params.write_text(json.dumps(dict(PARAMS, vehicle_lenght=4.5)))
    assert main(["safe-distance", "--params", str(params), "--v-r", "20", "--v-f", "20"]) == 2
    captured = capsys.readouterr()
    assert "d_min" not in captured.out
    assert "unknown parameter keys: vehicle_lenght" in captured.err


@pytest.mark.parametrize("kind", ["safety", "supervised"])
def test_verify_non_positive_margin_max_is_usage_error(params_file, tmp_path, capsys, kind):
    # verify reported 67 false counterexamples (exit 1); the supervised kind exited 3
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"margin_max": 0.0, "n_trials": 50, "include_grid": False}))
    rc = main(["verify", "--params", params_file, "--campaign", str(campaign), "--kind", kind])
    assert rc == 2
    assert "margin_max must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["abc", "-1", "1.5", ""])
def test_simulate_bad_pov_seed_is_usage_error(params_file, tmp_path, capsys, seed):
    # int("abc") and default_rng(-1) raised ValueError: a traceback, exit 1
    rc = main([
        "simulate", "--params", params_file, "--gap", "60", "--v-r", "20", "--v-f", "20",
        "--pov", f"random:{seed}", "--out", str(tmp_path / "t.csv"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert f"got {seed!r}" in err


@pytest.mark.parametrize("which", ["params", "supervisor", "campaign", "trajectory"])
def test_input_file_not_utf8_is_usage_error(params_file, tmp_path, capsys, which):
    # UnicodeDecodeError escaped every loader: a traceback, exit 1
    bad = tmp_path / "latin1.dat"
    bad.write_bytes(b"\xff\xfe{}\n")
    argv = {
        "params": ["safe-distance", "--params", str(bad), "--v-r", "1", "--v-f", "1"],
        "supervisor": ["simulate", "--params", params_file, "--supervisor-config", str(bad),
                       "--gap", "60", "--v-r", "20", "--v-f", "20",
                       "--out", str(tmp_path / "t.csv")],
        "campaign": ["verify", "--params", params_file, "--campaign", str(bad)],
        "trajectory": ["audit", "--params", params_file, "--trajectory", str(bad)],
    }[which]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert str(bad) in err


@pytest.mark.parametrize("t_end", ["-1", "-1e-300", "-inf"])
def test_simulate_negative_horizon_is_usage_error(params_file, tmp_path, capsys, t_end):
    # --t-end -1 exited 0 and wrote a one-sample trajectory
    out = tmp_path / "t.csv"
    rc = main([
        "simulate", "--params", params_file, "--gap", "60", "--v-r", "20", "--v-f", "20",
        f"--t-end={t_end}", "--out", str(out),
    ])
    assert rc == 2
    assert "t_end must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_zero_horizon_records_the_start(params_file, tmp_path):
    out = tmp_path / "t.csv"
    rc = main([
        "simulate", "--params", params_file, "--gap", "60", "--v-r", "20", "--v-f", "20",
        "--t-end", "0", "--out", str(out),
    ])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2  # the header and the start


@pytest.mark.parametrize("extra", [["--dt", "1e-300"], ["--t-end", "1e12"]])
def test_simulate_too_many_steps_is_usage_error(params_file, tmp_path, capsys, extra):
    # --dt 1e-300 ran about 1e300 steps and never ended
    rc = main([
        "simulate", "--params", params_file, "--gap", "60", "--v-r", "20", "--v-f", "20",
        "--out", str(tmp_path / "t.csv"),
    ] + extra)
    assert rc == 2
    assert "more than 1000000 steps" in capsys.readouterr().err


def test_verify_too_many_pov_segments_is_usage_error(params_file, tmp_path, capsys):
    # 1e8 segments tried to allocate 1e8-float arrays for every trial
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"pov_segments_max": 100_000_000, "n_trials": 1}))
    assert main(["verify", "--params", params_file, "--campaign", str(campaign)]) == 2
    assert "pov_segments_max" in capsys.readouterr().err


@pytest.mark.parametrize("params, v", [(PARAMS, "1e200"), (dict(PARAMS, a_brake_min=0.1, a_brake_max=0.2), "1e154")])
def test_overflowing_speed_is_usage_error(tmp_path, capsys, params, v):
    # 1e200 ended in an OverflowError traceback with exit 1; 1e154 with
    # weak braking gave d_min NaN, printed as 0
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["safe-distance", "--params", str(path), "--v-r", v, "--v-f", v]) == 2
    assert main([
        "simulate", "--params", str(path), "--gap", "60", "--v-r", v, "--v-f", "0",
        "--out", str(tmp_path / "t.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("overflows") == 2


@pytest.mark.parametrize("x_f, x_r", [(1e308, -1e308), (-1e308, 1e308)])
@pytest.mark.parametrize("out", [True, False])
def test_audit_of_overflowing_gap_is_usage_error(params_file, tmp_path, capsys, x_f, x_r, out):
    # finite positions whose gap overflows to +-inf gave an infinite margin,
    # which the report hash refused with a ValueError traceback and exit 1
    path = tmp_path / "t.csv"
    path.write_text(f"t,x_f,v_f,x_r,v_r,a_r,mode\n0,{x_f},20,{x_r},20,0,AC\n")
    argv = ["audit", "--params", params_file, "--trajectory", str(path)]
    report = tmp_path / "audit.json"
    assert main(argv + (["--out", str(report)] if out else [])) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "cannot write the audit report: Out of range float values" in err
    assert not report.exists()


@pytest.mark.parametrize("command", ["verify", "falsify"])
def test_overflowing_gap_in_a_campaign_is_usage_error(tmp_path, capsys, command):
    # positions near 1e308 m overflowed inside the gap kernels, which then
    # found no collision: falsify reported a survivor and exit 1, verify exit 0
    (tmp_path / "params.json").write_text(json.dumps(
        {"rho": 0.3, "a_max": 2.0, "a_brake_min": 0.5, "a_brake_max": 1.0}))
    (tmp_path / "campaign.json").write_text(json.dumps(
        {"n_trials": 3, "v_min": 1.2e154, "v_max": 1.3e154, "include_grid": False}))
    assert main([command, "--params", str(tmp_path / "params.json"),
                 "--campaign", str(tmp_path / "campaign.json")]) == 2
    err = capsys.readouterr().err
    assert "the gap is not finite" in err and "Traceback" not in err


def test_campaign_report_that_cannot_be_encoded_is_usage_error(
        params_file, tmp_path, capsys, monkeypatch):
    # campaigns wrote through make_report, whose hash refused a NaN with a
    # ValueError traceback
    monkeypatch.setattr(cli, "verify_safety_theorem", lambda params, cfg: CampaignOutcome(
        "safety_theorem", stats={"x": math.nan}))
    report = tmp_path / "verify.json"
    assert main(["verify", "--params", params_file, "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "cannot write the verify report: Out of range float values" in err
    assert not report.exists()
