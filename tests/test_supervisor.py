import math

import numpy as np
import pytest

from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.audit import audit, check_compliance
from rsskit.batch import unsupervised_runs
from rsskit.dynamics import ExecutionTrace, gentle_pov, worst_case_gap_analysis, worst_case_pov
from rsskit.errors import ConfigError, DomainError, EmptyTrajectory, InvariantBreach, StepError
from rsskit.response import BRAKING, HALTED, ResponsePhase
from rsskit.rule import evaluate, safe_distance
from rsskit.supervisor import (
    SupervisorConfig,
    SupervisorState,
    adversarial_ac,
    benign_ac,
    decide,
    run_supervised,
    worst_case_successor,
)

from conftest import state

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)
CFG = SupervisorConfig()


def test_config_validation():
    with pytest.raises(ConfigError):
        SupervisorConfig(period=0.0)
    with pytest.raises(ConfigError):
        SupervisorConfig(switchback_margin=-1.0)
    # an infinite margin was accepted, and a supervised run never returned to AC
    with pytest.raises(ConfigError, match="switchback_margin must be finite"):
        SupervisorConfig(switchback_margin=float("inf"))
    with pytest.raises(ConfigError):
        SupervisorConfig(period=0.5).validate_against(PAPER)
    SupervisorConfig(period=0.3).validate_against(PAPER)


def test_worst_case_successor():
    succ = worst_case_successor(PAPER, state(40.0, 20.0, 20.0), 0.1)
    assert succ.v_r == pytest.approx(20.2)
    assert succ.v_f == pytest.approx(19.2)
    # gap shrinks by the closing travel: 40 - (2.01 - 1.96)
    assert succ.gap == pytest.approx(40.0 - 0.05)


def test_worst_case_successor_clamps_pov_velocity():
    succ = worst_case_successor(PAPER, state(40.0, 0.0, 0.5), 0.1)
    assert succ.v_f == 0.0


def test_decide_stays_in_ac_when_lookahead_clean():
    sup = SupervisorState()
    new, cmd = decide(PAPER, CFG, sup, state(60.0, 20.0, 20.0), 1.5)
    assert new.mode == AC
    assert cmd == 1.5


def test_decide_clamps_ac_command():
    sup = SupervisorState()
    _, cmd = decide(PAPER, CFG, sup, state(60.0, 20.0, 20.0), 99.0)
    assert cmd == PAPER.a_max
    _, cmd = decide(PAPER, CFG, sup, state(60.0, 20.0, 20.0), -99.0)
    assert cmd == -PAPER.a_brake_min


def test_decide_engages_before_violation():
    # margin 0.065: current state safe, one-period worst case is not
    st = state(34.2, 20.0, 20.0)
    assert evaluate(PAPER, st).condition_holds
    succ = worst_case_successor(PAPER, st, CFG.period)
    assert not evaluate(PAPER, succ).condition_holds
    new, cmd = decide(PAPER, CFG, SupervisorState(), st, 2.0)
    assert new.mode == BC
    assert new.phase is not None


def test_decide_raises_on_violated_ac_state():
    with pytest.raises(InvariantBreach):
        decide(PAPER, CFG, SupervisorState(), state(30.0, 20.0, 20.0), 0.0)


def test_no_switchback_during_response_window():
    st = state(34.2, 20.0, 20.0)
    sup, _ = decide(PAPER, CFG, SupervisorState(), st, 2.0)
    assert sup.mode == BC
    # huge margin now, but the episode is still in its response window
    sup2, _ = decide(PAPER, CFG, sup, state(200.0, 20.0, 20.0), 2.0, t=0.1)
    assert sup2.mode == BC


def test_switchback_requires_margin_and_clean_lookahead():
    sup = SupervisorState(phase=ResponsePhase(HALTED))
    # halted with small margin: stay in BC
    new, _ = decide(PAPER, CFG, sup, state(0.5, 0.0, 0.0), 2.0, t=5.0)
    assert new.mode == BC
    # halted with ample margin: release
    new, cmd = decide(PAPER, CFG, sup, state(50.0, 0.0, 0.0), 2.0, t=5.0)
    assert new.mode == AC
    assert cmd == 2.0


def test_run_supervised_rejects_unsafe_start():
    with pytest.raises(InvariantBreach):
        run_supervised(PAPER, CFG, state(30.0, 20.0, 20.0),
                       adversarial_ac(PAPER), worst_case_pov(PAPER))


def test_adversarial_run_is_safe_and_compliant():
    trace = run_supervised(PAPER, CFG, state(40.0, 20.0, 20.0),
                           adversarial_ac(PAPER), worst_case_pov(PAPER), dt=0.01)
    assert trace.collision is None
    assert trace.bc_engagements >= 1
    assert trace.min_gap > 0.0
    compliant, violations = check_compliance(trace.to_trajectory())
    assert compliant, violations


def test_negative_control_collides():
    trace = run_supervised(PAPER, CFG, state(40.0, 20.0, 20.0),
                           adversarial_ac(PAPER), worst_case_pov(PAPER),
                           dt=0.01, supervised=False)
    assert trace.collision is not None
    assert all(s.mode == AC for s in trace.samples)
    assert trace.bc_engagements == 0


def test_negative_control_at_rest_is_driven_into_the_stopped_pov():
    # both vehicles stopped and the SV commanded +a_max: the run once
    # settled at its first sample, so the negative control never collided
    start, dt = state(10.0, 0.0, 0.0), 0.01
    trace = run_supervised(PAPER, CFG, start, adversarial_ac(PAPER), worst_case_pov(PAPER),
                           dt=dt, t_end=60.0, supervised=False)
    assert trace.collision is not None
    assert trace.collision.t == pytest.approx(math.sqrt(10.0), abs=dt)  # a_max t^2 / 2 = 10
    fallback, got = unsupervised_runs(PAPER, CFG, np.array([start]), dt, 60.0)
    assert fallback == [False] and got == [trace.collision]
    # a command that is not forward still settles at rest
    coasting = RssParams(0.3, 0.0, 4.0, 8.0)
    trace = run_supervised(coasting, CFG, start, adversarial_ac(coasting), worst_case_pov(coasting),
                           dt=dt, t_end=60.0, supervised=False)
    assert len(trace) == 1 and trace.collision is None
    assert unsupervised_runs(coasting, CFG, np.array([start]), dt, 60.0) == ([False], [None])


def sample(t, gap, mode=AC):
    return TrajectorySample(t, ScenarioState(gap, 10.0, 0.0, 10.0), 0.0, mode)


def test_a_hand_built_trace_is_checked_when_built():
    good = sample(0.0, 40.0)
    with pytest.raises(DomainError):
        ExecutionTrace((good, (0.1, good.state, 0.0, AC)), PAPER)
    with pytest.raises(DomainError):
        ExecutionTrace((good._replace(a_r=math.nan),), PAPER)
    with pytest.raises(EmptyTrajectory):
        ExecutionTrace((), PAPER)
    with pytest.raises(DomainError, match="strictly increasing"):
        ExecutionTrace((good, sample(0.0, 30.0)), PAPER)
    trace = ExecutionTrace([good], PAPER)
    assert isinstance(trace, Trajectory) and trace.samples == (good,)


def test_trace_summaries_are_read_from_the_samples():
    modes = [BC, AC, AC, BC, BC, AC]
    gaps = [40.0, 30.0, 35.0, 30.0, 50.0, 31.0]
    trace = ExecutionTrace([sample(0.1 * i, g, m) for i, (g, m) in enumerate(zip(gaps, modes))], PAPER)
    assert trace.bc_engagements == 2
    assert trace.collision is None
    # a tied minimum is reported at its earliest time
    assert (trace.min_gap, trace.min_gap_time) == (30.0, 0.1)
    # contact is a gap within COLLISION_EPS of the vehicle length, here at sample 0
    params = RssParams(0.3, 2.0, 4.0, 8.0, 4.5)
    contact = ExecutionTrace([sample(0.0, 4.5), sample(0.1, 4.5), sample(0.2, 20.0)], params)
    assert contact.collision is contact.samples[0]
    assert (contact.min_gap, contact.min_gap_time) == (4.5, 0.0)


def test_a_trace_audits_as_its_trajectory():
    # a colliding run, so the liability pass takes prefixes of the trace
    trace = run_supervised(PAPER, CFG, state(40.0, 20.0, 20.0), adversarial_ac(PAPER),
                           worst_case_pov(PAPER), dt=0.01, supervised=False)
    assert trace.collision is not None and type(trace.to_trajectory()) is Trajectory
    assert audit(trace) == audit(trace.to_trajectory())


def test_benign_ac_keeps_supervisor_quiet():
    trace = run_supervised(PAPER, CFG, state(80.0, 20.0, 20.0),
                           benign_ac(PAPER), gentle_pov(PAPER), dt=0.01, t_end=20.0)
    assert trace.collision is None
    assert trace.bc_engagements == 0
    assert all(s.mode == AC for s in trace.samples)


def test_benign_ac_keeps_supervisor_quiet_with_a_vehicle_length():
    # benign_ac aimed at a gap of 1.5 d_min, not at 1.5 d_min of free space:
    # with vehicle_length 4.5 this run engaged once, at 2.62 m of free space
    p = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=4.5)
    trace = run_supervised(p, CFG, state(84.5, 20.0, 20.0), benign_ac(p), gentle_pov(p), dt=0.01, t_end=20.0)
    assert trace.collision is None
    assert trace.bc_engagements == 0
    assert all(s.mode == AC for s in trace.samples)


def test_condition_holds_at_every_supervised_sample():
    trace = run_supervised(PAPER, CFG, state(76.0, 25.0, 15.0),
                           adversarial_ac(PAPER), worst_case_pov(PAPER), dt=0.005)
    assert trace.collision is None
    for s in trace.samples:
        if s.mode == AC:
            assert evaluate(PAPER, s.state).condition_holds


def test_custom_command_bounds():
    cfg = SupervisorConfig(sv_command_bounds=(-2.0, 1.0))
    assert cfg.bounds(PAPER) == (-2.0, 1.0)
    _, cmd = decide(PAPER, cfg, SupervisorState(), state(60.0, 20.0, 20.0), 5.0)
    assert cmd == 1.0


def test_vehicle_length_counts_against_the_margin():
    p = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=5.0)
    d = safe_distance(p, 20.0, 20.0)
    assert not evaluate(p, state(d + 1.0, 20.0, 20.0)).condition_holds
    st = state(d + 6.0, 20.0, 20.0)
    assert evaluate(p, st).condition_holds
    assert worst_case_gap_analysis(p, st)[0] is None
    trace = run_supervised(p, CFG, st, adversarial_ac(p), worst_case_pov(p), dt=0.01)
    assert trace.collision is None
    assert check_compliance(trace.to_trajectory())[0]


@pytest.mark.parametrize("dt", [0.06, 0.07, 0.09, 0.25, 0.3])
def test_supervised_runs_are_safe_when_dt_does_not_divide_rho(dt):
    # decisions every round(period / dt) steps; the lookahead and the
    # response window must follow the realized step grid
    rng = np.random.default_rng(17)
    for v_r, v_f, m in zip(rng.uniform(0, 40, 25), rng.uniform(0, 40, 25), rng.uniform(0, 5, 25)):
        st = state(safe_distance(PAPER, v_r, v_f) + m, v_r, v_f)
        trace = run_supervised(PAPER, CFG, st, adversarial_ac(PAPER), worst_case_pov(PAPER), dt=dt)
        assert trace.collision is None, (dt, v_r, v_f, m)
        assert check_compliance(trace.to_trajectory())[0], (dt, v_r, v_f, m)


def test_decision_interval_longer_than_rho_is_rejected():
    with pytest.raises(ConfigError):
        run_supervised(PAPER, CFG, state(60.0, 20.0, 20.0),
                       adversarial_ac(PAPER), worst_case_pov(PAPER), dt=0.5)


@pytest.mark.parametrize("bounds", [(-4.0, 8.0), (1.0, -1.0), (-float("inf"), 2.0), (-4.0, float("nan"))])
def test_command_bounds_outside_the_formula_are_rejected(bounds):
    # an AC commanding more than a_max outruns the lookahead; at (-4, 8)
    # the run used to end in InvariantBreach at t = 0.1 s
    cfg = SupervisorConfig(sv_command_bounds=bounds)
    with pytest.raises(ConfigError):
        cfg.validate_against(PAPER)
    with pytest.raises(ConfigError):
        run_supervised(PAPER, cfg, state(60.0, 20.0, 20.0),
                       lambda t, s: 8.0, worst_case_pov(PAPER), dt=0.01)


def test_command_bounds_within_the_formula_are_accepted():
    SupervisorConfig(sv_command_bounds=(-8.0, 2.0)).validate_against(PAPER)
    SupervisorConfig(sv_command_bounds=(0.0, 0.0)).validate_against(PAPER)


@pytest.mark.parametrize("dt, t_end", [
    (float("nan"), None), (float("inf"), None), (0.01, float("nan")), (0.01, float("inf")),
])
def test_run_supervised_rejects_non_finite_steps(dt, t_end):
    with pytest.raises(StepError):
        run_supervised(PAPER, CFG, state(60.0, 20.0, 20.0),
                       adversarial_ac(PAPER), worst_case_pov(PAPER), dt=dt, t_end=t_end)


@pytest.mark.parametrize("fields", [
    {"period": True}, {"period": "0.1"}, {"switchback_margin": 10 ** 400},
    {"switchback_margin": False}, {"sv_command_bounds": (-1.0, "x")},
    {"sv_command_bounds": (True, 1.0)}, {"sv_command_bounds": [-1.0]}, {"sv_command_bounds": "ab"},
])
def test_supervisor_config_refuses_what_the_json_path_refuses(fields):
    # through the API these were accepted or raised TypeError or OverflowError,
    # some only once a campaign ran; a NaN or infinity still meets the range
    # checks (test_command_bounds_outside_the_formula_are_rejected)
    from rsskit.core import read_record
    from rsskit.verify import CampaignConfig, verify_supervised_safety

    (key, value), = fields.items()
    with pytest.raises(ConfigError, match=f"supervisor config '{key}' is not"):
        verify_supervised_safety(PAPER, SupervisorConfig(**fields), CampaignConfig(n_trials=5))
    raw = {key: list(value) if isinstance(value, tuple) else value}
    with pytest.raises(ConfigError, match=f"supervisor config '{key}' is not"):
        read_record(raw, "supervisor config", SupervisorConfig.KINDS)


def test_supervisor_config_stores_floats_and_a_tuple():
    cfg = SupervisorConfig(period=np.float64(0.1), switchback_margin=1, sv_command_bounds=[-2, 1.0])
    assert cfg == SupervisorConfig(0.1, 1.0, (-2.0, 1.0))
    assert [type(z) for z in (cfg.period, cfg.switchback_margin, *cfg.sv_command_bounds)] == [float] * 4
    assert SupervisorConfig(sv_command_bounds=(-4.0, float("nan"))).sv_command_bounds[0] == -4.0
