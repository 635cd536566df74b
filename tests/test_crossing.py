"""Differential test of the closed-form crossing in refine_crossing against
a test-local copy of the 60-halving bisection it replaced.

Both find the time within a step at which the advance_vehicle gap falls
to vehicle_length + COLLISION_EPS.  That gap is flat over about
ulp(x) / closing speed, and near a tangent over sqrt(ulp(x) / |relative
acceleration|), so two correct answers can differ by that much; the test
bounds the difference by 1e-12 s plus that plateau, and by 1e-12 s alone
on the negative-control steps.
"""
import math
import random

import pytest

from rsskit import dynamics
from rsskit.core import RssParams, ScenarioState
from rsskit.dynamics import COLLISION_EPS, advance_vehicle, refine_crossing, worst_case_pov
from rsskit.rule import safe_distance
from rsskit.supervisor import SupervisorConfig, adversarial_ac, run_supervised


def reference_bisection(x_r, v_r, a_r, x_f, v_f, a_f, step, length):
    def gap_at(tau):
        xr, _, _ = advance_vehicle(x_r, v_r, a_r, tau)
        xf, _, _ = advance_vehicle(x_f, v_f, a_f, tau)
        return xf - xr - length

    lo, hi = 0.0, step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap_at(mid) <= COLLISION_EPS:
            hi = mid
        else:
            lo = mid
    return hi


def free_space(step_args, tau):
    x_r, v_r, a_r, x_f, v_f, a_f, _, length = step_args
    return advance_vehicle(x_f, v_f, a_f, tau)[0] - advance_vehicle(x_r, v_r, a_r, tau)[0] - length


def plateau(step_args, tau):
    """How long the advance_vehicle gap takes to move by 4 ulps of the
    positions around tau."""
    x_r, v_r, a_r, x_f, v_f, a_f, _, _ = step_args
    xr, vr, _ = advance_vehicle(x_r, v_r, a_r, tau)
    xf, vf, _ = advance_vehicle(x_f, v_f, a_f, tau)
    dg = 4.0 * math.ulp(max(abs(xr), abs(xf)))
    closing = abs(vf - vr)
    bend = abs((a_f if vf > 0.0 else 0.0) - (a_r if vr > 0.0 else 0.0))
    return min(
        dg / closing if closing else math.inf,
        math.sqrt(2.0 * dg / bend) if bend else math.inf,
    )


def random_params(rng):
    a_brake_min = rng.uniform(1.0, 8.0)
    return RssParams(
        rho=rng.uniform(0.1, 1.5),
        a_max=rng.uniform(0.0, 5.0),
        a_brake_min=a_brake_min,
        a_brake_max=a_brake_min + rng.uniform(0.5, 6.0),
        vehicle_length=rng.choice((0.0, 4.5)),
    )


def negative_control_steps(seed, sim_dt, n):
    """The colliding steps of n unsupervised adversarial episodes, drawn
    like verify_supervised_safety's, with random parameters."""
    rng = random.Random(seed)
    steps = []

    def recording(*args):
        steps.append(args)
        return refine_crossing(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "refine_crossing", recording)
        for _ in range(n):
            params = random_params(rng)
            v_r, v_f = rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)
            gap = (safe_distance(params, v_r, v_f) + params.vehicle_length
                   + rng.uniform(1e-3, 50.0))
            cfg = SupervisorConfig(period=min(0.1, params.rho))
            run_supervised(params, cfg, ScenarioState(gap, v_f, 0.0, v_r),
                           adversarial_ac(params), worst_case_pov(params),
                           dt=sim_dt, t_end=60.0, supervised=False)
    assert len(steps) == n  # every unsupervised episode collides
    return steps


def random_step(rng, kind):
    """One colliding step: random parameters, commands within their
    bounds and dt in [0.001, 0.3]; the start gap is placed so that the
    gap crosses the threshold inside the step.  None when the draw does
    not close in or misses the kind."""
    params = random_params(rng)
    step = rng.uniform(0.001, 0.3)
    a_r = rng.uniform(-params.a_brake_min, params.a_max)
    a_f = rng.uniform(-params.a_brake_max, 2.0)
    v_r, v_f = rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)
    if kind in ("rear_stops", "both_stop"):
        a_r = -rng.uniform(0.1, params.a_brake_min)
        v_r = rng.uniform(0.0, -a_r * step)
    if kind == "rear_stops":
        # a front vehicle slower than the rear one, still moving at the end
        v_f = rng.uniform(0.0, v_r)
        a_f = rng.uniform(-v_f / step, 2.0)
    if kind in ("front_stops", "both_stop"):
        a_f = -rng.uniform(0.1, params.a_brake_max)
        v_f = rng.uniform(0.0, -a_f * step)
    if kind == "matched":
        # nearly equal accelerations: the root formula cancels digits
        a_f = max(-params.a_brake_max, a_r + rng.uniform(-1e-3, 1e-3))
    frac = rng.random()
    if kind == "tangent":
        # the closing speed reaches zero within a hair of the end of the
        # step, where the gap just touches the threshold
        a_f = rng.uniform(max(a_r, -params.a_brake_max), 2.0)
        t_vertex = rng.uniform(0.001, 0.3)
        v_r = v_f + t_vertex * (a_f - a_r)
        step = t_vertex * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3.0, 15.0))
        frac = 1.0 - 10.0 ** -rng.uniform(0.0, 12.0)
    closing = advance_vehicle(0.0, v_r, a_r, step)[0] - advance_vehicle(0.0, v_f, a_f, step)[0]
    if closing <= 0.0:
        return None
    length = params.vehicle_length
    x_r = rng.choice((0.0, rng.uniform(0.0, 200.0), rng.uniform(0.0, 3000.0)))
    x_f = x_r + length + COLLISION_EPS + frac * closing
    args = (x_r, v_r, a_r, x_f, v_f, a_f, step, length)
    if not (x_f - x_r - length > COLLISION_EPS and free_space(args, step) <= COLLISION_EPS):
        return None
    return args


KINDS = ("moving", "matched", "rear_stops", "front_stops", "both_stop", "tangent")


def random_steps(seed, per_kind):
    rng = random.Random(seed)
    steps = {kind: [] for kind in KINDS}
    for kind in KINDS:
        while len(steps[kind]) < per_kind:
            args = random_step(rng, kind)
            if args is not None:
                steps[kind].append(args)
    return steps


def check(args, extra):
    step = args[6]
    tau = refine_crossing(*args)
    assert 0.0 < tau <= step, args
    assert free_space(args, tau) <= COLLISION_EPS, args
    old = reference_bisection(*args)
    assert abs(tau - old) <= 1e-12 + extra(args, old), (args, tau, old)


@pytest.mark.parametrize("sim_dt, n", [(0.05, 800), (0.01, 400)])
def test_crossing_matches_bisection_on_negative_control(sim_dt, n):
    for args in negative_control_steps(2024, sim_dt, n):
        check(args, lambda args, tau: 0.0)


def test_crossing_matches_bisection_on_random_steps():
    steps = random_steps(7, 1600)
    for batch in steps.values():
        for args in batch:
            check(args, plateau)
    # the kinds are what they say: a vehicle stops inside the step
    stops = lambda v, a, step: a < 0.0 and v + a * step < 0.0
    assert all(stops(a[1], a[2], a[6]) for a in steps["rear_stops"] + steps["both_stop"])
    assert all(stops(a[4], a[5], a[6]) for a in steps["front_stops"] + steps["both_stop"])


def test_tangent_without_a_root_starts_at_the_vertex():
    # a seeded tangent step: the closing speed reaches zero just before
    # the end of the step, and the discriminant of the one piece rounds
    # below zero although the gap ends at the threshold
    args = (0.0, 20.849567690937707, -2.569061110644194, 4.5003621499349915,
            20.807717378995566, -0.1509280714076522, 0.017306869090145713, 4.5)
    x_r, v_r, a_r, x_f, v_f, a_f, step, length = args
    gv, ga = v_f - v_r, a_f - a_r
    assert dynamics._first_root(x_f - x_r - length, gv, ga, step) is None
    vertex = -gv / ga
    assert 0.0 < vertex < step
    tau = refine_crossing(*args)
    assert vertex <= tau <= step
    assert free_space(args, tau) <= COLLISION_EPS
    assert abs(tau - reference_bisection(*args)) <= 1e-12 + plateau(args, tau)
