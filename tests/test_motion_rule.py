"""One no-reversing motion rule.

advance_vehicle is the only code that decides whether and when a vehicle
stops; build_profile, refine_crossing and worst_case_successor read their
stop times and stop positions from it.  These tests pin that rule against
test-local copies of the forms it replaced:

- advance_vehicle's (x, v) is bit for bit its former two-value result;
- build_profile agrees with advance_vehicle chained piece by piece, bit
  for bit, at every breakpoint and at t_end;
- build_profile, and the worst-case gap analysis built on it, agree with
  the former inline-stop build_profile up to the rounding of the stop
  position (x0 of a segment after a stop, and the association of the
  position update);
- worst_case_successor agrees with its former inline form except in x_f,
  by at most 1 ulp of x_f + v_f * delta, where the POV stops exactly at
  the end of the step.
"""
import math
import random

import pytest

from oracle import analyze_gap
from rsskit.core import RssParams, ScenarioState
from rsskit.dynamics import (
    COLLISION_EPS,
    advance_vehicle,
    build_profile,
    profile_state,
    worst_case_gap_analysis,
)
from rsskit.rule import margin, safe_distance
from rsskit.supervisor import worst_case_successor


def reference_advance_vehicle(x, v, a, dt):
    if v <= 0.0 and a <= 0.0:
        return x, 0.0
    if a < 0.0 and v + a * dt < 0.0:
        t_stop = v / (-a)
        return x + v * t_stop + 0.5 * a * t_stop * t_stop, 0.0
    return x + v * dt + 0.5 * a * dt * dt, max(0.0, v + a * dt)


def reference_build_profile(x0, v0, schedule, t_end):
    if t_end <= 0.0:
        return [(0.0, 0.0, x0, max(0.0, v0), 0.0)]
    segs = []
    x, v = x0, max(0.0, v0)
    starts = [t for t, _ in schedule]
    for i, (tb, a) in enumerate(schedule):
        if tb >= t_end:
            break
        t_next = min(starts[i + 1] if i + 1 < len(starts) else t_end, t_end)
        t = tb
        while t < t_next:
            if v <= 0.0 and a <= 0.0:
                segs.append((t, t_next, x, 0.0, 0.0))
                v = 0.0
                t = t_next
            elif a < 0.0 and v + a * (t_next - t) < 0.0:
                t_stop = t + v / (-a)
                segs.append((t, t_stop, x, v, a))
                x += v * (t_stop - t) + 0.5 * a * (t_stop - t) ** 2
                v = 0.0
                t = t_stop
            else:
                span = t_next - t
                segs.append((t, t_next, x, v, a))
                x += v * span + 0.5 * a * span * span
                v = max(0.0, v + a * span)
                t = t_next
    return segs


def reference_worst_case_successor(params, state, delta):
    v_r = state.v_r + params.a_max * delta
    x_r = state.x_r + state.v_r * delta + 0.5 * params.a_max * delta * delta
    t_b = min(delta, state.v_f / params.a_brake_max)
    x_f = state.x_f + state.v_f * t_b - 0.5 * params.a_brake_max * t_b * t_b
    v_f = max(0.0, state.v_f - params.a_brake_max * delta)
    return ScenarioState(x_f, v_f, x_r, v_r)


def random_params(rng):
    a_brake_min = rng.uniform(1.0, 8.0)
    return RssParams(
        rho=rng.uniform(0.1, 1.5),
        a_max=rng.choice((0.0, rng.uniform(0.0, 5.0))),
        a_brake_min=a_brake_min,
        a_brake_max=a_brake_min + rng.uniform(0.5, 6.0),
        vehicle_length=rng.choice((0.0, 4.5)),
    )


def random_schedules(seed, n):
    """n (x0, v0, schedule, t_end) draws with halts, rest, restarts and
    exact stops: integer breakpoints with speeds and decelerations whose
    stop lands on one (8 m/s at -4 m/s^2 stops at t = 2)."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        cuts = {rng.choice((rng.uniform(0.0, 8.0), float(rng.randint(1, 8))))
                for _ in range(rng.randint(0, 6))}
        starts = [0.0] + sorted(cuts - {0.0})
        sched = [(t, rng.choice((rng.uniform(-9.0, 4.0), 0.0, -4.0, -8.0, 2.0)))
                 for t in starts]
        v0 = rng.choice((0.0, 8.0, 16.0, rng.uniform(0.0, 40.0)))
        t_end = rng.choice((2.0, 8.0, rng.uniform(0.1, 10.0)))
        draws.append((rng.uniform(-50.0, 500.0), v0, sched, t_end))
    return draws


@pytest.fixture(scope="module")
def schedules():
    return random_schedules(20261018, 100_000)


def test_advance_vehicle_state_is_bit_identical():
    rng = random.Random(8)
    stops = moving_whole = held = 0
    for _ in range(100_000):
        dt = rng.choice((0.05, 0.1, 1.0, rng.uniform(1e-6, 5.0)))
        a = rng.choice((0.0, -4.0, 2.0, rng.uniform(-10.0, 5.0)))
        kind = rng.random()
        if kind < 0.2:
            v = 0.0
        elif kind < 0.4 and a < 0.0:
            v = -a * dt  # stops exactly at the end of the step
        elif kind < 0.7 and a < 0.0:
            v = rng.uniform(0.0, -a * dt)
        else:
            v = rng.uniform(0.0, 40.0)
        x = rng.uniform(-100.0, 2000.0)
        x1, v1, moving = advance_vehicle(x, v, a, dt)
        assert (x1, v1) == reference_advance_vehicle(x, v, a, dt), (x, v, a, dt)
        assert 0.0 <= moving <= dt
        if moving == 0.0:
            held += 1
            assert (x1, v1) == (x, 0.0)
        elif moving < dt:
            stops += 1
            assert v1 == 0.0
            assert x1 == x + v * moving + 0.5 * a * moving * moving
        else:
            moving_whole += 1
    assert min(stops, moving_whole, held) > 5_000


def test_build_profile_is_advance_vehicle_chained(schedules):
    checked = 0
    for x0, v0, sched, t_end in schedules:
        segs = build_profile(x0, v0, sched, t_end)
        x, v = x0, max(0.0, v0)
        for i, (t, a) in enumerate(sched):
            if t >= t_end:
                break
            t_next = min(sched[i + 1][0], t_end) if i + 1 < len(sched) else t_end
            x, v, _ = advance_vehicle(x, v, a, t_next - t)
            assert profile_state(segs, t_next)[:2] == (x, v), (x0, v0, sched, t_end)
            checked += 1
    assert checked > 200_000


def test_build_profile_matches_inline_stop_form(schedules):
    differ = 0
    for x0, v0, sched, t_end in schedules:
        got = build_profile(x0, v0, sched, t_end)
        want = reference_build_profile(x0, v0, sched, t_end)
        assert len(got) == len(want), (x0, v0, sched, t_end)
        for g, w in zip(got, want):
            assert (g[0], g[1], g[3], g[4]) == (w[0], w[1], w[3], w[4])
            assert abs(g[2] - w[2]) <= 1e-12 * max(1.0, abs(w[2])), (g, w)
            differ += g[2] != w[2]
    # the position rounding does change, so the reference is not trivial
    assert differ > 1_000


def reference_gap_analysis(params, start):
    v_peak = start.v_r + params.a_max * params.rho
    t_sv_halt = 0.0 if v_peak <= 0.0 else params.rho + v_peak / params.a_brake_min
    sched_r = [(0.0, params.a_max), (params.rho, -params.a_brake_min)]
    segs_r = reference_build_profile(start.x_r, start.v_r, sched_r, t_sv_halt)
    segs_f = reference_build_profile(
        start.x_f, start.v_f, [(0.0, -params.a_brake_max)], t_sv_halt
    )
    return analyze_gap(segs_r, segs_f, params.vehicle_length)


def test_worst_case_gap_analysis_matches_inline_stop_form():
    rng = random.Random(31)
    pool = [random_params(rng) for _ in range(1_000)] + [
        RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=length) for length in (0.0, 4.5)
    ] * 500
    verdicts = {True: 0, False: 0}
    for _ in range(100_000):
        params = rng.choice(pool)
        v_r = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        v_f = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        m = rng.choice((0.0, COLLISION_EPS, 5e-10, 2e-9, rng.uniform(-5.0, 50.0)))
        gap = safe_distance(params, v_r, v_f) + params.vehicle_length + m
        start = ScenarioState(gap, v_f, 0.0, v_r)
        col_t, _, min_gap, _, _, _ = worst_case_gap_analysis(params, start)
        ref_col_t, _, ref_min_gap, _ = reference_gap_analysis(params, start)
        tol = 1e-12 * max(1.0, abs(gap))
        assert abs(min_gap - ref_min_gap) <= tol, (params, start)
        if abs(margin(params, start) - COLLISION_EPS) > tol:
            assert (col_t is None) == (ref_col_t is None), (params, start)
        verdicts[col_t is None] += 1
    assert min(verdicts.values()) > 10_000


def test_worst_case_successor_matches_inline_form():
    rng = random.Random(5)
    pool = [random_params(rng) for _ in range(1_000)]
    differ = 0
    for i in range(100_000):
        params = rng.choice(pool)
        delta = rng.choice((0.05, 0.1, params.rho, rng.uniform(1e-3, params.rho)))
        if i % 4 == 0:
            v_f = params.a_brake_max * delta  # the POV stops at the end of the step
        else:
            v_f = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        state = ScenarioState(
            rng.uniform(0.0, 500.0), v_f, rng.uniform(-50.0, 0.0),
            rng.choice((0.0, rng.uniform(0.0, 50.0))),
        )
        got = worst_case_successor(params, state, delta)
        want = reference_worst_case_successor(params, state, delta)
        assert (got.v_f, got.x_r, got.v_r) == (want.v_f, want.x_r, want.v_r)
        # 1 ulp of the position before the braking term is subtracted;
        # that can be 2 ulps of a small x_f
        ulp = math.ulp(state.x_f + state.v_f * delta)
        assert abs(got.x_f - want.x_f) <= ulp, (params, state, delta)
        if got.x_f != want.x_f:
            # the two stop tests round differently only at that boundary
            assert i % 4 == 0, (params, state, delta)
            differ += 1
    assert differ < 1_000
