import math
import random

import numpy as np
import pytest

from rsskit.core import RssParams, ScenarioState
from rsskit.dynamics import (
    CASE_1,
    CASE_2,
    CASE_3,
    CASE_4,
    ALL_CASES,
    COLLISION_EPS,
    MAX_STEPS,
    POV_A_FWD_MAX,
    analyze_gap,
    build_profile,
    check_step,
    classify_worst_case,
    integrate,
    piecewise_pov,
    pov_stop_distance,
    profile_state,
    sv_stop_distance,
    worst_case_execution,
    worst_case_gap_analysis,
    worst_case_pov,
)
from rsskit.errors import DomainError, StepError
from rsskit.rule import safe_distance

from conftest import state

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)


# --- stopping distances ----------------------------------------------------

def test_sv_stop_distance_reference():
    # 6 + 0.09 + 53.045
    assert sv_stop_distance(PAPER, 20.0) == pytest.approx(59.135, abs=1e-9)


def test_pov_stop_distance_reference():
    assert pov_stop_distance(PAPER, 20.0) == pytest.approx(25.0, abs=1e-12)


def test_stop_distances_at_zero():
    assert sv_stop_distance(PAPER, 0.0) == pytest.approx(0.135)
    assert pov_stop_distance(PAPER, 0.0) == 0.0


def test_stop_distance_zero_a_max():
    p = RssParams(0.3, 0.0, 4.0, 8.0)
    assert sv_stop_distance(p, 0.0) == 0.0


def test_stop_distances_reject_negative():
    with pytest.raises(DomainError):
        sv_stop_distance(PAPER, -1.0)
    with pytest.raises(DomainError):
        pov_stop_distance(PAPER, -1.0)


def test_decomposition_matches_rule():
    rng = np.random.default_rng(3)
    for v_r, v_f in rng.uniform(0.0, 40.0, size=(300, 2)):
        want = max(0.0, sv_stop_distance(PAPER, v_r) - pov_stop_distance(PAPER, v_f))
        assert safe_distance(PAPER, v_r, v_f) == pytest.approx(want, rel=1e-12, abs=1e-12)


# --- motion engine ---------------------------------------------------------

def test_build_profile_braking_stop():
    segs = build_profile(0.0, 10.0, [(0.0, -4.0)], 10.0)
    assert profile_state(segs, 2.5 - 1e-6)[1] > 0.0
    assert profile_state(segs, 2.5)[1] == 0.0
    x, v, _ = profile_state(segs, 10.0)
    assert x == pytest.approx(12.5)  # v^2/(2a) = 100/8
    assert v == 0.0


def test_build_profile_holds_halt():
    segs = build_profile(5.0, 0.0, [(0.0, -2.0)], 3.0)
    x, v, a = profile_state(segs, 3.0)
    assert (x, v, a) == (5.0, 0.0, 0.0)


def test_build_profile_restart_after_halt():
    # brake to a stop, then accelerate again
    segs = build_profile(0.0, 4.0, [(0.0, -4.0), (2.0, 1.0)], 4.0)
    x1, v1, _ = profile_state(segs, 1.5)
    assert v1 == 0.0
    x2, v2, _ = profile_state(segs, 4.0)
    assert v2 == pytest.approx(2.0)
    assert x2 == pytest.approx(x1 + 0.5 * 1.0 * 2.0 ** 2)


def test_analyze_gap_finds_collision_time():
    # rear at 10 m/s, front parked 20 m ahead: hit at t=2 s
    segs_r = build_profile(0.0, 10.0, [(0.0, 0.0)], 5.0)
    segs_f = build_profile(20.0, 0.0, [(0.0, 0.0)], 5.0)
    col_t, col_gap, min_gap, min_t = analyze_gap(segs_r, segs_f)
    assert col_t == pytest.approx(2.0, abs=1e-8)
    assert min_gap == pytest.approx(0.0, abs=2e-9)


def test_analyze_gap_interior_vertex_minimum():
    # closing then separating: the minimum sits strictly inside a segment
    segs_r = build_profile(0.0, 5.0, [(0.0, -1.0)], 10.0)
    segs_f = build_profile(30.0, 2.0, [(0.0, 0.5)], 10.0)
    col_t, _, min_gap, min_t = analyze_gap(segs_r, segs_f)
    assert col_t is None
    # relative velocity zero at 5 - t = 2 + 0.5t -> t = 2
    assert min_t == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < min_gap < 30.0


def test_analyze_gap_vehicle_length_offset():
    segs_r = build_profile(0.0, 10.0, [(0.0, 0.0)], 5.0)
    segs_f = build_profile(20.0, 0.0, [(0.0, 0.0)], 5.0)
    col_t, _, _, _ = analyze_gap(segs_r, segs_f, length=5.0)
    assert col_t == pytest.approx(1.5, abs=1e-9)


def _scan_state(segs, t):
    """profile_state by linear scan: the last segment starting at or before t."""
    i = 0
    for k, seg in enumerate(segs):
        if seg[0] <= t:
            i = k
    t0, t1, x0, v0, a = segs[i]
    dt = min(max(t, t0), t1) - t0
    return x0 + v0 * dt + 0.5 * a * dt * dt, max(0.0, v0 + a * dt), a


def _reference_analyze_gap(segs_r, segs_f, length):
    """The per-breakpoint-lookup kernel analyze_gap must reproduce exactly."""
    times = sorted({s[0] for s in segs_r} | {s[1] for s in segs_r}
                   | {s[0] for s in segs_f} | {s[1] for s in segs_f})
    xr0, _, _ = _scan_state(segs_r, times[0])
    xf0, _, _ = _scan_state(segs_f, times[0])
    best_gap = xf0 - xr0 - length
    best_t = times[0]
    if best_gap <= COLLISION_EPS:
        return times[0], best_gap + length, best_gap + length, times[0]
    for u0, u1 in zip(times, times[1:]):
        if u1 <= u0:
            continue
        xr, vr, ar = _scan_state(segs_r, u0)
        xf, vf, af = _scan_state(segs_f, u0)
        g0 = xf - xr - length
        gv = vf - vr
        ga = af - ar
        tau = u1 - u0
        root = None
        c = g0 - COLLISION_EPS
        if ga != 0.0:
            disc = gv * gv - 2.0 * ga * c
            if disc >= 0.0:
                sq = math.sqrt(disc)
                for r in sorted(((-gv - sq) / ga, (-gv + sq) / ga)):
                    if 0.0 <= r <= tau:
                        root = r
                        break
        elif gv < 0.0:
            r = c / (-gv)
            if r <= tau:
                root = r
        if root is not None:
            g_col = g0 + gv * root + 0.5 * ga * root * root
            return u0 + root, g_col + length, g_col + length, u0 + root
        candidates = [(0.0, g0), (tau, g0 + gv * tau + 0.5 * ga * tau * tau)]
        if ga > 0.0:
            tv = -gv / ga
            if 0.0 < tv < tau:
                candidates.append((tv, g0 + gv * tv + 0.5 * ga * tv * tv))
        for tt, gg in candidates:
            if gg < best_gap:
                best_gap = gg
                best_t = u0 + tt
    return None, None, best_gap + length, best_t


def _random_profile(rng, x0):
    """1-8 schedule entries with halts and restarts; horizon 0 now and then;
    sometimes a zero-length segment spliced in front of a breakpoint."""
    starts = [0.0] + sorted(rng.uniform(0.0, 8.0) for _ in range(rng.randint(0, 7)))
    sched = [(t, rng.choice((rng.uniform(-9.0, 4.0), 0.0, -8.0, 2.0)))
             for i, t in enumerate(starts) if i == 0 or t > starts[i - 1]]
    t_end = rng.choice((0.0, 5.0, rng.uniform(0.1, 10.0)))
    segs = build_profile(x0, rng.choice((0.0, rng.uniform(0.0, 40.0))), sched, t_end)
    if rng.random() < 0.2:
        k = rng.randrange(len(segs))
        t0, _, x, v, _ = segs[k]
        segs.insert(k, (t0, t0, x, v, rng.uniform(-9.0, 4.0)))
    return segs


def test_analyze_gap_matches_per_breakpoint_reference():
    rng = random.Random(20261018)
    collisions = 0
    for _ in range(10_000):
        segs_r = _random_profile(rng, 0.0)
        segs_f = _random_profile(rng, rng.uniform(-1.0, 80.0))
        length = rng.choice((0.0, 4.5))
        got = analyze_gap(segs_r, segs_f, length)
        assert got == _reference_analyze_gap(segs_r, segs_f, length), (segs_r, segs_f, length)
        collisions += got[0] is not None
    # both the collision return and the scan to the end are exercised
    assert 1_000 < collisions < 9_000


def test_profile_state_matches_linear_scan():
    rng = random.Random(7)
    for _ in range(2_000):
        segs = _random_profile(rng, rng.uniform(-5.0, 5.0))
        breaks = [s[0] for s in segs] + [s[1] for s in segs]
        for t in [rng.uniform(-1.0, 12.0), segs[-1][1] + 1.0] + rng.sample(breaks, 2):
            assert profile_state(segs, t) == _scan_state(segs, t), (segs, t)


# --- worst-case execution --------------------------------------------------

def test_worked_boundary_case_just_safe():
    trace = worst_case_execution(PAPER, state(34.136, 20.0, 20.0))
    assert trace.collision is None
    assert trace.min_gap == pytest.approx(0.001, abs=1e-9)
    assert trace.min_gap_time == pytest.approx(trace.sv_halt_time, abs=1e-9)
    assert trace.sv_halt_time == pytest.approx(0.3 + 20.6 / 4.0, abs=1e-12)


def test_worked_boundary_case_just_unsafe():
    trace = worst_case_execution(PAPER, state(34.0, 20.0, 20.0))
    assert trace.collision is not None
    assert trace.collision.gap <= 2e-9


def test_exact_boundary_touch_counts_as_collision():
    d = safe_distance(PAPER, 20.0, 20.0)
    col_t, _, min_gap, _, _, _ = worst_case_gap_analysis(PAPER, state(d, 20.0, 20.0))
    assert col_t is not None
    assert abs(min_gap) <= 2e-9


def test_gap_analysis_agrees_with_sampled_execution():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v_r, v_f = rng.uniform(0.0, 35.0, size=2)
        gap = safe_distance(PAPER, v_r, v_f) + rng.uniform(0.01, 20.0)
        st = state(gap, v_r, v_f)
        col_t, _, min_gap, min_t, _, _ = worst_case_gap_analysis(PAPER, st)
        trace = worst_case_execution(PAPER, st, dt=1e-2)
        assert col_t is None
        assert trace.collision is None
        assert trace.min_gap == pytest.approx(min_gap, abs=1e-9)


def test_worst_case_rejects_bad_dt():
    with pytest.raises(StepError):
        worst_case_execution(PAPER, state(40.0, 20.0, 20.0), dt=0.0)


# --- case classification ---------------------------------------------------

@pytest.mark.parametrize(
    "v_r,v_f,case",
    [
        (20.0, 10.0, CASE_1),
        (20.0, 20.0, CASE_1),   # w = 0 counts as nonnegative
        (10.0, 12.0, CASE_2),   # crossing inside the response window
        (10.0, 14.0, CASE_3),   # crossing during the braking phase
        (5.0, 30.0, CASE_4),
        (0.0, 20.0, CASE_4),
    ],
)
def test_classify_worst_case_examples(v_r, v_f, case):
    assert classify_worst_case(PAPER, state(200.0, v_r, v_f)) == case


def test_classify_case_on_trace():
    trace = worst_case_execution(PAPER, state(100.0, 10.0, 12.0))
    assert classify_worst_case(trace.params, trace.samples[0].state) == CASE_2


def test_classification_is_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(500):
        v_r, v_f = rng.uniform(0.0, 40.0, size=2)
        assert classify_worst_case(PAPER, state(500.0, v_r, v_f)) in ALL_CASES


def test_min_gap_at_start_or_halt():
    """On collision-free worst-case runs the gap minimum sits at the start
    or at the rear vehicle's halt, never strictly inside."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        v_r, v_f = rng.uniform(0.0, 40.0, size=2)
        st = state(safe_distance(PAPER, v_r, v_f) + rng.uniform(0.5, 30.0), v_r, v_f)
        col_t, _, _, min_t, t_halt, _ = worst_case_gap_analysis(PAPER, st)
        assert col_t is None
        assert min(abs(min_t - 0.0), abs(min_t - t_halt)) <= 1e-9


# --- fixed-step integrator -------------------------------------------------

def worst_sv_policy(params):
    return lambda t, s: params.a_max if t < params.rho else -params.a_brake_min


# a front vehicle that holds its speed (zero acceleration throughout)
STEADY_POV = piecewise_pov(PAPER, [(0.0, 0.0)])


def test_integrate_braking_stop_is_exact():
    # stationary front far away; rear brakes from 10 m/s at -4: travels 12.5 m
    sv = lambda t, s: -4.0
    trace = integrate(PAPER, state(1000.0, 10.0, 0.0), sv, STEADY_POV, 1e-3, 5.0)
    final = trace.samples[-1].state
    assert final.v_r == 0.0
    assert final.x_r == pytest.approx(12.5, abs=1e-12)
    assert trace.sv_halt_time is not None


def test_integrate_matches_closed_form_on_boundary_case():
    st = state(34.136, 20.0, 20.0)
    ref = worst_case_execution(PAPER, st)
    trace = integrate(PAPER, st, worst_sv_policy(PAPER), worst_case_pov(PAPER), 1e-3, 8.0)
    assert trace.collision is None
    assert abs(trace.min_gap - ref.min_gap) < 0.01


def test_integrate_collision_detection():
    sv = lambda t, s: 0.0
    trace = integrate(PAPER, state(20.0, 10.0, 0.0), sv, STEADY_POV, 1e-2, 5.0)
    assert trace.collision is not None
    assert trace.collision.t == pytest.approx(2.0, abs=1e-2)
    assert trace.samples[-1].state.gap <= 1e-9


def test_integrate_error_shrinks_with_dt():
    st = state(36.0, 20.0, 20.0)
    _, _, ref, _, _, _ = worst_case_gap_analysis(PAPER, st)
    errs = []
    for dt in (4e-3, 1e-3, 2.5e-4):
        tr = integrate(PAPER, st, worst_sv_policy(PAPER), worst_case_pov(PAPER), dt, 8.0)
        errs.append(abs(tr.min_gap - ref))
    assert errs[0] >= errs[1] >= errs[2] or errs[0] < 1e-9


def test_integrate_takes_full_steps():
    # t_end is not a multiple of dt: the last step still lasts dt, so each
    # sample's state is the one at its own time stamp
    sv = lambda t, s: 1.0
    trace = integrate(PAPER, state(1000.0, 10.0, 0.0), sv, STEADY_POV, 0.3, 1.0)
    assert [s.t for s in trace.samples] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.2])
    for s in trace.samples:
        assert s.state.x_r == pytest.approx(10.0 * s.t + 0.5 * s.t ** 2, abs=1e-12)


def test_integrate_rejects_bad_dt():
    with pytest.raises(StepError):
        integrate(PAPER, state(40.0, 10.0, 10.0), lambda t, s: 0.0,
                  STEADY_POV, -1.0, 1.0)


@pytest.mark.parametrize("dt, t_end", [
    (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf),
])
def test_integrate_rejects_non_finite_steps(dt, t_end):
    with pytest.raises(StepError):
        integrate(PAPER, state(40.0, 10.0, 10.0), lambda t, s: 0.0,
                  STEADY_POV, dt, t_end)


def test_run_length_is_bounded():
    # a dt of 1e-300 made a run of about 1e300 steps that never ended
    check_step(1.0, float(MAX_STEPS))
    with pytest.raises(StepError, match="more than"):
        check_step(1.0, MAX_STEPS + 1.0)
    with pytest.raises(StepError, match="more than"):
        integrate(PAPER, state(40.0, 10.0, 10.0), lambda t, s: 0.0,
                  STEADY_POV, 1e-300, 1.0)
    with pytest.raises(StepError, match="more than"):
        worst_case_execution(PAPER, state(40.0, 20.0, 20.0), dt=1e-300)


def test_pov_command_clamped_to_model():
    pov = piecewise_pov(PAPER, [(0.0, -100.0)])
    assert pov.command(0.0, 0.0, 10.0) == -PAPER.a_brake_max
    pov = piecewise_pov(PAPER, [(0.0, 100.0)])
    assert pov.command(0.0, 0.0, 10.0) == POV_A_FWD_MAX
