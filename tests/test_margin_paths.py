"""The supervisor's decisions and the compliance check read the safety
margin through rule.margin instead of building a SafetyEvaluation, and
evaluate and margin read a state's speeds without checking them again.

Each fast path is compared here with a copy of its plainer form, kept in
this file as the reference: the results must be identical, down to the
float bits and the text of any InvariantBreach or DomainError.
"""
import math
import random
import sys
from dataclasses import replace

import numpy as np

from rsskit.audit import Violation, check_compliance
from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.dynamics import gentle_pov, piecewise_pov, worst_case_pov
from rsskit.errors import DomainError, InvariantBreach
from rsskit.response import (
    BRAKING,
    HALTED,
    RESPONSE_WINDOW,
    ResponsePhase,
    proper_response_command,
)
from rsskit.rule import SafetyEvaluation, evaluate, margin, safe_distance, safe_distance_raw
from rsskit.supervisor import (
    SupervisorConfig,
    SupervisorState,
    adversarial_ac,
    benign_ac,
    decide,
    run_supervised,
    worst_case_successor,
)
from rsskit.trajio import read_trajectory, write_trajectory

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)


def reference_evaluate(params, state):
    """evaluate as it read the speeds through safe_distance_raw's checks."""
    d_min = max(0.0, safe_distance_raw(params, state.v_r, state.v_f))
    gap = state.gap
    margin = gap - params.vehicle_length - d_min
    return SafetyEvaluation(d_min=d_min, gap=gap, margin=margin, condition_holds=margin > 0.0)


def reference_margin(params, state):
    return (state.x_f - state.x_r - params.vehicle_length
            - max(0.0, safe_distance_raw(params, state.v_r, state.v_f)))


def reference_decide(params, cfg, sup, state, ac_command, t=0.0):
    lo, hi = cfg.bounds(params)
    clamped = min(hi, max(lo, ac_command))

    ev = evaluate(params, state)
    if sup.mode == AC:
        if not ev.condition_holds:
            raise InvariantBreach(
                f"AC-mode decision at t={t!r} with the safety condition violated "
                f"(margin {ev.margin!r}); the supervised loop is misconfigured"
            )
        succ = worst_case_successor(params, state, cfg.period)
        if evaluate(params, succ).condition_holds:
            return replace(sup, held_command=clamped), clamped
        sup = SupervisorState(ResponsePhase(RESPONSE_WINDOW), clamped)
    elif sup.phase.kind in (BRAKING, HALTED) and ev.margin > cfg.switchback_margin:
        succ = worst_case_successor(params, state, cfg.period)
        if evaluate(params, succ).condition_holds:
            return SupervisorState(None, clamped), clamped
    cmd = proper_response_command(params, sup.phase, state.v_r, sup.held_command)
    return sup, cmd


def reference_check_compliance(traj, accel_tol=0.2, time_tol=None):
    if time_tol is None:
        ts = [s.t for s in traj.samples]
        if len(ts) < 2:
            time_tol = 0.0
        else:
            dts = sorted(b - a for a, b in zip(ts, ts[1:]))
            time_tol = dts[len(dts) // 2]
    params = traj.params
    starts = [None] * len(traj.samples)
    current = None
    for i, s in enumerate(traj.samples):
        if s.mode == BC:
            if current is None:
                current = i
            starts[i] = current
        else:
            current = None
    episode_ok = {}
    for i, s in enumerate(traj.samples):
        if starts[i] == i:
            episode_ok[i] = evaluate(params, s.state).condition_holds

    failures = []
    for i, s in enumerate(traj.samples):
        ev = evaluate(params, s.state)
        if ev.condition_holds:
            continue
        if s.mode != BC:
            failures.append((s.t, "ConditionFalseNoResponse"))
            continue
        ep = starts[i]
        if not episode_ok[ep]:
            failures.append((s.t, "ResponseStartedUnsafe"))
            continue
        if s.t - traj.samples[ep].t <= params.rho + time_tol:
            continue
        if s.state.v_r > 0.0 and s.a_r > -params.a_brake_min + accel_tol:
            failures.append((s.t, "InsufficientBraking"))

    violations = []
    for t, reason in failures:
        if violations and violations[-1][2] == reason and t - violations[-1][1] <= 2 * (time_tol or 0.0) + 1e-12:
            violations[-1][1] = t
        else:
            violations.append([t, t, reason])
    violations = [Violation(a, b, r) for a, b, r in violations]
    return (not violations), violations


def random_params(rng):
    a_brake_min = rng.uniform(1.0, 8.0)
    return RssParams(
        rho=rng.uniform(0.1, 1.5),
        a_max=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
        a_brake_min=a_brake_min,
        a_brake_max=a_brake_min * rng.uniform(1.05, 3.0),
        vehicle_length=rng.choice([0.0, rng.uniform(0.1, 6.0)]),
    )


def random_state(rng, params, lo=-5.0, hi=30.0):
    """A state whose margin lies in [lo, hi], at a random lane offset."""
    v_r = rng.choice([0.0, rng.uniform(0.0, 40.0)])
    v_f = rng.choice([0.0, rng.uniform(0.0, 40.0)])
    x_r = rng.uniform(-100.0, 100.0)
    gap = safe_distance(params, v_r, v_f) + params.vehicle_length + rng.uniform(lo, hi)
    return ScenarioState(x_r + gap, v_f, x_r, v_r)


def boundary_states(params):
    """States whose margin is exactly 0, clamped d_min included."""
    found = []
    for v_r in (0.0, 5.0, 12.5, 20.0, 33.0):
        for v_f in (0.0, 7.0, 20.0, 40.0):
            d = safe_distance(params, v_r, v_f)
            for x_r in (0.0, 1.0, -3.5, 100.0):
                st = ScenarioState(x_r + params.vehicle_length + d, v_f, x_r, v_r)
                if evaluate(params, st).margin == 0.0:
                    found.append(st)
    return found


def bits(x):
    return float(x).hex()


def test_margin_is_evaluate_margin_bit_for_bit():
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        params = random_params(rng)
        states = [random_state(rng, params) for _ in range(250)] + boundary_states(params)
        for st in states:
            assert bits(margin(params, st)) == bits(evaluate(params, st).margin), (params, st)
            checked += 1
    assert checked >= 10_000


def test_margin_exactly_zero_fails_the_condition():
    zeros = boundary_states(PAPER) + boundary_states(replace(PAPER, vehicle_length=4.5))
    assert len(zeros) >= 20
    for params in (PAPER, replace(PAPER, vehicle_length=4.5)):
        for st in boundary_states(params):
            assert margin(params, st) == 0.0
            assert not evaluate(params, st).condition_holds


def rule_outcome(fn, params, state):
    """fn's result as the type and bits of each field, or its DomainError."""
    try:
        result = fn(params, state)
    except DomainError as exc:
        return "DomainError: " + str(exc)
    fields = result if isinstance(result, tuple) else (result,)
    return type(result), [(type(v), v.hex() if isinstance(v, float) else v) for v in fields]


def assert_rule_matches_the_reference(params, states):
    for st in states:
        assert rule_outcome(evaluate, params, st) == rule_outcome(reference_evaluate, params, st), st
        assert rule_outcome(margin, params, st) == rule_outcome(reference_margin, params, st), st


def speed_kinds(rng, st):
    """st with its speeds as floats, ints and numpy floats."""
    v_r, v_f = round(st.v_r), round(st.v_f)
    gap = st.x_f - st.x_r
    return [st, ScenarioState(st.x_r + gap + rng.uniform(-2.0, 2.0), v_f, st.x_r, v_r),
            ScenarioState(np.float64(st.x_f), np.float64(st.v_f), st.x_r, np.float64(st.v_r)),
            ScenarioState(round(st.x_f), v_f, round(st.x_r), v_r)]


def test_evaluate_and_margin_match_the_checked_chain():
    rng = random.Random(23)
    lengths = set()
    for i in range(40):
        params = random_params(rng) if i else PAPER
        lengths.add(params.vehicle_length > 0)
        states = [random_state(rng, params) for _ in range(100)] + boundary_states(params)
        assert_rule_matches_the_reference(params, [k for st in states for k in speed_kinds(rng, st)])
    assert lengths == {False, True}


def test_evaluate_and_margin_match_the_checked_chain_on_read_states(tmp_path):
    rng = random.Random(29)
    path = tmp_path / "traj.csv"
    for i in range(10):
        params = random_params(rng) if i else replace(PAPER, vehicle_length=4.5)
        states = [random_state(rng, params, lo=-1e-6, hi=1e-6) for _ in range(100)]
        samples = tuple(TrajectorySample(0.1 * j, st, 0.0, AC) for j, st in enumerate(states))
        write_trajectory(Trajectory(samples, params), path)
        assert_rule_matches_the_reference(params, [s.state for s in read_trajectory(path, params).samples])


def test_evaluate_and_margin_match_the_checked_chain_at_the_overflow_edge():
    # speeds within 0.1 % of sqrt(max float), and ints whose square no
    # float holds: the same margins, or the same DomainError text
    rng = random.Random(31)
    root = math.sqrt(sys.float_info.max)
    near = [root * rng.uniform(0.999, 1.001) for _ in range(200)]
    speeds = [(v, 0.0) for v in near] + [(0.0, v) for v in near] + list(zip(near, near[::-1]))
    speeds += [(10 ** 200, 0), (0, 10 ** 200), (int(root), 3), (3, int(root) + 1)]
    raised = 0
    for params in (PAPER, RssParams(0.3, 2.0, 0.1, 0.2, 4.5)):
        states = [ScenarioState(1e300, v_f, -1e300, v_r) for v_r, v_f in speeds]
        assert_rule_matches_the_reference(params, states)
        raised += sum(isinstance(rule_outcome(evaluate, params, st), str) for st in states)
    assert 0 < raised < 2 * len(speeds)


def random_supervisor_state(rng):
    held = rng.uniform(-6.0, 6.0)
    if rng.random() < 0.5:
        return SupervisorState(None, held)
    kind = rng.choice([RESPONSE_WINDOW, BRAKING, HALTED])
    return SupervisorState(ResponsePhase(kind, rng.uniform(0.0, 0.3)), held)


def outcome(fn, *args):
    try:
        new, cmd = fn(*args)
    except InvariantBreach as exc:
        return "InvariantBreach: " + str(exc)
    return repr(new), bits(cmd), new.mode


def test_decide_matches_the_evaluate_based_reference():
    rng = random.Random(5)
    counts = {"breach": 0, "ac": 0, "engage": 0, "release": 0, "bc": 0}
    for i in range(12_000):
        if i % 400 == 0:
            params = random_params(rng) if i else PAPER
            period = params.rho * rng.choice([1.0, rng.uniform(0.05, 1.0)])
            bounds = rng.choice([None, (-params.a_brake_min * rng.uniform(0.2, 2.0),
                                        params.a_max * rng.uniform(0.0, 1.0))])
            cfg = SupervisorConfig(period, rng.choice([0.0, rng.uniform(0.0, 5.0)]), bounds)
            zeros = boundary_states(params)
        sup = random_supervisor_state(rng)
        if zeros and rng.random() < 0.05:
            st = rng.choice(zeros)
        else:
            st = random_state(rng, params, lo=-3.0, hi=8.0)
        ac_command = rng.choice([params.a_max, rng.uniform(-10.0, 10.0)])
        t = rng.uniform(0.0, 30.0)
        got = outcome(decide, params, cfg, sup, st, ac_command, t)
        assert got == outcome(reference_decide, params, cfg, sup, st, ac_command, t)
        if isinstance(got, str):
            counts["breach"] += 1
        elif sup.mode == AC:
            counts["ac" if got[2] == AC else "engage"] += 1
        else:
            counts["release" if got[2] == AC else "bc"] += 1
    # every branch of the decision was taken many times
    assert min(counts.values()) >= 200, counts


def perturbed(traj, rng):
    """Recorded noise and faults: jittered states, flipped modes, weak
    braking, and BC episodes started in unsafe states."""
    samples = []
    for s in traj.samples:
        st, a_r, mode = s.state, s.a_r, s.mode
        u = rng.random()
        if u < 0.1:
            st = ScenarioState(st.x_f - rng.uniform(0.0, 3.0), st.v_f, st.x_r, st.v_r)
        elif u < 0.15:
            mode = BC if mode == AC else AC
        elif u < 0.25 and mode == BC:
            a_r = rng.uniform(-traj.params.a_brake_min, 0.0)
        samples.append(TrajectorySample(s.t, st, a_r, mode))
    return Trajectory(tuple(samples), traj.params)


def test_check_compliance_matches_the_evaluate_based_reference():
    rng = random.Random(9)
    kinds = {"supervised": 0, "unsupervised": 0, "perturbed": 0}
    verdicts = set()
    reasons = set()
    for i in range(1_050):
        if i % 30 == 0:
            params = random_params(rng) if i else PAPER
            # below rho, so that k * (period / k) cannot round above it
            cfg = SupervisorConfig(params.rho * rng.uniform(0.2, 0.95), rng.uniform(0.0, 3.0))
            dt = cfg.period / rng.choice([1, 2, 3, 2.5])
        st = random_state(rng, params, lo=1e-3, hi=20.0)
        ac = adversarial_ac(params) if rng.random() < 0.7 else benign_ac(params)
        pov = rng.choice([worst_case_pov(params), gentle_pov(params),
                          piecewise_pov(params, [(0.0, 1.0), (1.0, -params.a_brake_max)])])
        kind = ("supervised", "unsupervised", "perturbed")[i % 3]
        trace = run_supervised(params, cfg, st, ac, pov, dt=dt, t_end=rng.uniform(1.0, 8.0),
                               supervised=kind != "unsupervised")
        traj = trace.to_trajectory()
        if kind == "perturbed":
            traj = perturbed(traj, rng)
        kinds[kind] += 1
        accel_tol = rng.choice([0.2, 0.0, rng.uniform(0.0, 2.0)])
        time_tol = rng.choice([None, 0.0, dt])
        got = check_compliance(traj, accel_tol, time_tol)
        assert repr(got) == repr(reference_check_compliance(traj, accel_tol, time_tol))
        verdicts.add(got[0])
        reasons.update(v.reason for v in got[1])
    assert min(kinds.values()) >= 350
    assert verdicts == {True, False}
    assert reasons == {"ConditionFalseNoResponse", "ResponseStartedUnsafe", "InsufficientBraking"}
