"""Longitudinal kinematics: closed-form worst-case executions, an exact
piecewise-constant-acceleration motion engine, a fixed-step integrator
for arbitrary behaviors, POV behavior models, and collision detection.

The motion engine evolves a vehicle under a piecewise-constant
acceleration schedule, splitting segments exactly where the velocity
hits zero (a braking command holds a stopped vehicle at rest; there is
no reversing).  Positions are then piecewise quadratic, so gap minima
and collision times are computed in closed form.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .core import BC, AC, RssParams, ScenarioState, Trajectory, TrajectorySample
from .errors import DomainError, StepError
from .rule import travel_terms

# Touching counts as collision (strict inequality reading of the safety
# condition).  The epsilon absorbs float rounding at exact-boundary starts;
# it is far below any physically meaningful gap.
COLLISION_EPS = 1e-9

CASE_1 = "Case1"
CASE_2 = "Case2"
CASE_3 = "Case3"
CASE_4 = "Case4"
ALL_CASES = (CASE_1, CASE_2, CASE_3, CASE_4)


def sv_stop_distance(params: RssParams, v_r: float) -> float:
    """Worst-case SV travel: a_max for rho, then a_brake_min to a halt."""
    response_travel, response_gain, sv_brake, _ = travel_terms(params, v_r, 0.0)
    return response_travel + response_gain + sv_brake


def pov_stop_distance(params: RssParams, v_f: float) -> float:
    """POV travel under maximum emergency braking."""
    return travel_terms(params, 0.0, v_f)[3]


# ---------------------------------------------------------------------------
# piecewise-constant-acceleration motion engine

def build_profile(x0: float, v0: float, schedule, t_end: float):
    """Motion segments for one vehicle over [0, t_end].

    schedule is a list of (start time, acceleration) pairs with strictly
    increasing start times, the first at 0.  Returns a list of
    (t0, t1, x0, v0, a) tuples; within a segment the acceleration is
    constant and the velocity stays nonnegative.  Each schedule piece is
    one advance_vehicle step, so its no-reversing rule decides where a
    piece splits into a moving and a standing segment.
    """
    if t_end <= 0.0:
        return [(0.0, 0.0, x0, max(0.0, v0), 0.0)]
    segs = []
    x, v = x0, max(0.0, v0)
    for i, (t, a) in enumerate(schedule):
        if t >= t_end:
            break
        t_next = min(schedule[i + 1][0], t_end) if i + 1 < len(schedule) else t_end
        span = t_next - t
        x_next, v_next, moving = advance_vehicle(x, v, a, span)
        if moving == span:
            segs.append((t, t_next, x, v, a))
        else:
            if moving > 0.0:
                segs.append((t, t + moving, x, v, a))
            segs.append((t + moving, t_next, x_next, 0.0, 0.0))
        x, v = x_next, v_next
    return segs


def segment_state(seg, t: float):
    """(position, velocity, acceleration) on one segment; t clamped to it."""
    t0, t1, x0, v0, a = seg
    dt = min(max(t, t0), t1) - t0
    return (
        x0 + v0 * dt + 0.5 * a * dt * dt,
        max(0.0, v0 + a * dt),
        a,
    )


def profile_state(segs, t: float):
    """(position, velocity, acceleration) at time t; t clamped to the span."""
    i = max(0, bisect_right(segs, t, key=itemgetter(0)) - 1)
    return segment_state(segs[i], t)


def _first_root(g0, gv, ga, tau):
    """Earliest s in [0, tau] at which the gap g0 + gv s + ga s^2 / 2
    falls to COLLISION_EPS, or None.  analyze_gap and refine_crossing
    both solve their gap quadratics here."""
    c = g0 - COLLISION_EPS
    if ga != 0.0:
        disc = gv * gv - 2.0 * ga * c
        if disc >= 0.0:
            sq = math.sqrt(disc)
            r1 = (-gv - sq) / ga
            r2 = (-gv + sq) / ga
            if r2 < r1:
                r1, r2 = r2, r1
            if 0.0 <= r1 <= tau:
                return r1
            if 0.0 <= r2 <= tau:
                return r2
    elif gv < 0.0:
        r = c / (-gv)
        if r <= tau:
            return r
    return None


def _overflow(t):
    return DomainError(f"the gap is not finite on the interval from t = {t!r} s: "
                       "the positions overflow")


def analyze_gap(segs_r, segs_f, length: float = 0.0):
    """Earliest collision and minimum gap between two motion profiles.

    Returns (collision_t, gap_at_collision, min_gap, min_gap_t); the
    first two are None when the gap never falls to length + COLLISION_EPS.  The
    minimum is tracked only up to the collision, if any.  A gap the walk
    reads that is not finite (positions that overflowed) raises DomainError.

    One forward walk: each profile's index moves on while its next
    segment starts at or before u0, the segment profile_state picks.
    """
    times = sorted(
        {s[0] for s in segs_r}
        | {s[1] for s in segs_r}
        | {s[0] for s in segs_f}
        | {s[1] for s in segs_f}
    )
    last_r, last_f = len(segs_r) - 1, len(segs_f) - 1
    ir = jf = 0
    best_gap = best_t = None
    # a single breakpoint pairs with itself, so the start check still runs
    for u0, u1 in zip(times, times[1:] or times):
        while ir < last_r and segs_r[ir + 1][0] <= u0:
            ir += 1
        while jf < last_f and segs_f[jf + 1][0] <= u0:
            jf += 1
        xr, vr, ar = segment_state(segs_r[ir], u0)
        xf, vf, af = segment_state(segs_f[jf], u0)
        g0 = xf - xr - length
        if not math.isfinite(g0):
            raise _overflow(u0)
        if best_gap is None:
            if g0 <= COLLISION_EPS:
                return u0, g0 + length, g0 + length, u0
            best_gap, best_t = g0, u0
        if u1 <= u0:
            continue
        gv = vf - vr
        ga = af - ar
        tau = u1 - u0
        root = _first_root(g0, gv, ga, tau)
        if root is not None:
            g_col = g0 + gv * root + 0.5 * ga * root * root
            return u0 + root, g_col + length, g_col + length, u0 + root

        # interval minimum: start, end, then the interior vertex if a minimum
        if g0 < best_gap:
            best_gap, best_t = g0, u0
        g1 = g0 + gv * tau + 0.5 * ga * tau * tau
        if not math.isfinite(g1):
            raise _overflow(u0)
        if g1 < best_gap:
            best_gap, best_t = g1, u0 + tau
        if ga > 0.0:
            tv = -gv / ga
            if 0.0 < tv < tau:
                gm = g0 + gv * tv + 0.5 * ga * tv * tv
                if gm < best_gap:
                    best_gap, best_t = gm, u0 + tv
    return None, None, best_gap + length, best_t


# ---------------------------------------------------------------------------
# execution traces

@dataclass(frozen=True)
class CollisionEvent:
    t: float
    gap: float


@dataclass(frozen=True)
class ExecutionTrace:
    """Immutable result of one simulated execution."""

    samples: tuple
    params: RssParams
    collision: Optional[CollisionEvent] = None
    sv_halt_time: Optional[float] = None
    min_gap: float = math.inf
    min_gap_time: float = 0.0
    bc_engagements: int = 0

    def to_trajectory(self) -> Trajectory:
        return Trajectory(self.samples, self.params)


def worst_case_sv_halt(params: RssParams, v_r: float) -> float:
    """The SV halt time of the closed-form worst case from speed v_r."""
    v_peak = v_r + params.a_max * params.rho
    return params.rho + v_peak / params.a_brake_min if v_peak > 0.0 else 0.0


def _worst_case_run(params: RssParams, start: ScenarioState):
    """Closed-form worst case up to the SV halt.

    Returns (segs_r, segs_f, analyze_gap result, t_sv_halt, t_pov_halt).
    """
    t_sv_halt = worst_case_sv_halt(params, start.v_r)
    t_pov_halt = start.v_f / params.a_brake_max
    sched_r = [(0.0, params.a_max), (params.rho, -params.a_brake_min)]
    segs_r = build_profile(start.x_r, start.v_r, sched_r, t_sv_halt)
    segs_f = build_profile(start.x_f, start.v_f, [(0.0, -params.a_brake_max)], t_sv_halt)
    gap = analyze_gap(segs_r, segs_f, params.vehicle_length)
    return segs_r, segs_f, gap, t_sv_halt, t_pov_halt


def worst_case_gap_analysis(params: RssParams, start: ScenarioState):
    """Closed-form worst-case run without building a sampled trace.

    Returns (collision_t, gap_at_collision, min_gap, min_gap_t, t_sv_halt,
    t_pov_halt).  Used by the verification campaigns, where sampled traces
    would only add overhead.
    """
    _, _, gap, t_sv_halt, t_pov_halt = _worst_case_run(params, start)
    return gap + (t_sv_halt, t_pov_halt)


def worst_case_execution(
    params: RssParams, start: ScenarioState, dt: float = 1e-3
) -> ExecutionTrace:
    """Closed-form worst-case run, sampled at dt.

    The SV accelerates at a_max for exactly rho then brakes at
    a_brake_min; the POV brakes at a_brake_max.  The trace ends at SV
    halt or at the collision, whichever comes first.
    """
    segs_r, segs_f, gap, t_sv_halt, t_pov_halt = _worst_case_run(params, start)
    col_t, col_gap, min_gap, min_gap_t = gap
    end = col_t if col_t is not None else t_sv_halt
    check_step(dt, end)

    ts = []
    k = 0
    while k * dt < end - 1e-12:
        ts.append(k * dt)
        k += 1
    ts.append(end)

    samples = []
    for t in ts:
        xr, vr, ar = profile_state(segs_r, t)
        xf, vf, _ = profile_state(segs_f, t)
        samples.append(
            TrajectorySample(t, ScenarioState(xf, vf, xr, vr), ar, BC)
        )
    collision = CollisionEvent(col_t, col_gap) if col_t is not None else None
    if collision is not None:
        min_gap, min_gap_t = col_gap, col_t
    return ExecutionTrace(
        samples=tuple(samples),
        params=params,
        collision=collision,
        sv_halt_time=t_sv_halt if col_t is None or col_t >= t_sv_halt else None,
        min_gap=min_gap,
        min_gap_time=min_gap_t,
    )


def classify_worst_case(params: RssParams, start: ScenarioState) -> str:
    """Velocity-pattern case of the worst-case execution from `start`.

    The sign history of the relative velocity w = v_r - v_f decides the
    case: always nonnegative (Case1), always negative until the SV halts
    (Case4), or crossing from negative to positive -- during the response
    window (Case2) or during the braking phase (Case3).  w is piecewise
    linear under the worst-case behaviors, so the crossing is computed
    exactly from the start state.
    """
    w = start.v_r - start.v_f
    if w >= 0.0:
        return CASE_1

    t_s = worst_case_sv_halt(params, start.v_r)
    t_p = start.v_f / params.a_brake_max

    breakpoints = sorted({min(params.rho, t_s), min(t_p, t_s), t_s})
    prev = 0.0
    for b in breakpoints:
        if b <= prev:
            continue
        mid = 0.5 * (prev + b)
        slope = (params.a_max if mid < params.rho else -params.a_brake_min) + (
            params.a_brake_max if mid < t_p else 0.0
        )
        w_end = w + slope * (b - prev)
        if w_end >= 0.0:
            t_c = prev + (-w) / slope if slope > 0 else b
            return CASE_2 if t_c < params.rho else CASE_3
        w = w_end
        prev = b
    return CASE_4


# ---------------------------------------------------------------------------
# POV behavior models

# The largest forward acceleration of every POV behavior [m/s^2].
POV_A_FWD_MAX = 2.0


@dataclass(frozen=True)
class PovBehavior:
    """Front-vehicle behavior: an acceleration policy plus its braking bound.

    The policy maps (t, position, velocity) to an acceleration, which is
    clamped to [-brake_limit, POV_A_FWD_MAX].  brake_limit is normally the
    scenario's a_brake_max; exceeding it puts the POV outside the model.
    """

    policy: Callable[[float, float, float], float]
    brake_limit: float

    def command(self, t: float, x: float, v: float) -> float:
        return min(POV_A_FWD_MAX, max(-self.brake_limit, self.policy(t, x, v)))


def worst_case_pov(params: RssParams) -> PovBehavior:
    """Emergency braking to a halt: the worst admissible POV behavior."""
    return PovBehavior(lambda t, x, v: -params.a_brake_max, params.a_brake_max)


def gentle_pov(params: RssParams) -> PovBehavior:
    return PovBehavior(lambda t, x, v: -1.0, params.a_brake_max)


def piecewise_pov(params: RssParams, schedule) -> PovBehavior:
    """Piecewise-constant acceleration schedule [(start time, accel), ...]."""
    starts = [t for t, _ in schedule]
    accels = [a for _, a in schedule]

    def policy(t, x, v):
        i = max(0, bisect_right(starts, t) - 1)
        return accels[i]

    return PovBehavior(policy, params.a_brake_max)


# ---------------------------------------------------------------------------
# fixed-step integrator

def advance_vehicle(x: float, v: float, a: float, dt: float):
    """One exact constant-acceleration step with the no-reversing rule,
    the only code that decides whether and when a vehicle stops.

    Returns (x, v, moving), moving being how long the vehicle moves in
    the step: 0 when held at rest, the stop time when it stops inside
    the step, dt otherwise.  The stop is solved exactly, so stopping
    distances carry no O(dt) bias.
    """
    if v <= 0.0 and a <= 0.0:
        return x, 0.0, 0.0
    if a < 0.0 and v + a * dt < 0.0:
        t_stop = v / (-a)
        return x + v * t_stop + 0.5 * a * t_stop * t_stop, 0.0, t_stop
    return x + v * dt + 0.5 * a * dt * dt, max(0.0, v + a * dt), dt


# A sampled run keeps every sample (about 0.3 kB each), so its length is
# bounded: more steps than this is an input error, not a long run.
MAX_STEPS = 1_000_000


def check_step(dt: float, t_end: float = 0.0) -> int:
    """The number of dt steps a run to t_end takes, ceil(t_end / dt) with a
    1e-9 allowance for rounding.  Rejects a step that is not finite and
    positive, a t_end that is not finite and >= 0, or more than MAX_STEPS."""
    if not 0.0 < dt < math.inf:
        raise StepError(f"dt must be finite and > 0, got {dt!r}")
    if not 0.0 <= t_end < math.inf:
        raise StepError(f"t_end must be finite and >= 0, got {t_end!r}")
    if t_end / dt > MAX_STEPS:
        raise StepError(
            f"t_end {t_end!r} s at dt {dt!r} s takes more than {MAX_STEPS} steps"
        )
    return max(0, int(math.ceil(t_end / dt - 1e-9)))


def refine_crossing(x_r, v_r, a_r, x_f, v_f, a_f, step, length):
    """The time within (0, step] at which the advance_vehicle gap falls
    to length + COLLISION_EPS; it must be above that at 0, at most at step.

    The stop times from advance_vehicle split the step into at most three
    gap quadratics.  The first root _first_root finds (Newton-polished for
    the digits lost to cancellation), or a tangent piece's vertex, starts a
    forward search in steps doubling from one ulp: the gap is flat over
    ulp(x) / closing speed.
    """
    xr1, _, tr = advance_vehicle(x_r, v_r, a_r, step)
    xf1, _, tf = advance_vehicle(x_f, v_f, a_f, step)
    r0, r1 = (0.0, tr, x_r, v_r, a_r), (tr, step, xr1, 0.0, 0.0)
    f0, f1 = (0.0, tf, x_f, v_f, a_f), (tf, step, xf1, 0.0, 0.0)
    times = sorted({0.0, r1[0], f1[0], step})
    tau = step
    for u0, u1 in zip(times, times[1:]):
        xr, vr, ar = segment_state(r1 if r1[0] <= u0 else r0, u0)
        xf, vf, af = segment_state(f1 if f1[0] <= u0 else f0, u0)
        g0, gv, ga = xf - xr - length, vf - vr, af - ar
        root = _first_root(g0, gv, ga, u1 - u0)
        if root is not None and gv + ga * root < 0.5 * gv:
            residual = g0 - COLLISION_EPS + root * (gv + 0.5 * ga * root)
            root = max(0.0, root - residual / (gv + ga * root))
        elif root is None and ga > 0.0 and 0.0 < -gv / ga < u1 - u0:
            root = -gv / ga
        if root is not None:
            tau = min(u0 + root, step)
            break
    h = math.ulp(tau)
    while tau < step and (
        advance_vehicle(x_f, v_f, a_f, tau)[0] - advance_vehicle(x_r, v_r, a_r, tau)[0]
        - length > COLLISION_EPS
    ):
        tau, h = min(tau + h, step), 2.0 * h
    return tau


def crossing(t, x_r, v_r, a_r, x_f, v_f, a_f, step, length):
    """(time, state) where the step from time t crosses into collision."""
    tau = refine_crossing(x_r, v_r, a_r, x_f, v_f, a_f, step, length)
    cx_r, cv_r, _ = advance_vehicle(x_r, v_r, a_r, tau)
    cx_f, cv_f, _ = advance_vehicle(x_f, v_f, a_f, tau)
    return t + tau, ScenarioState(cx_f, cv_f, cx_r, cv_r)


def run_fixed_step(
    params: RssParams,
    start: ScenarioState,
    control: Callable[[int, float, ScenarioState], tuple],
    pov_behavior: PovBehavior,
    dt: float,
    t_end: float,
) -> ExecutionTrace:
    """The fixed-step closed loop behind every sampled simulation.

    At the start of step i (t = i * dt) the loop calls
    control(i, t, state), which returns (a_r, mode, settled): the SV
    acceleration held over the step, the control mode recorded with the
    sample, and whether the controller may stop here once both vehicles
    have halted.  The POV command is sampled at the same instant; within
    a step the kinematics are exact.  The run takes full dt steps until
    t_end is reached, and ends early at a settled halt or at a collision
    (gap falling to vehicle_length), which refine_crossing locates inside
    the step.
    """
    n_steps = check_step(dt, t_end)
    length = params.vehicle_length
    x_f, v_f, x_r, v_r = start.x_f, start.v_f, start.x_r, start.v_r
    samples = []
    collision = None
    sv_halt = None
    min_gap = math.inf
    min_gap_t = 0.0

    for i in range(n_steps + 1):
        t = i * dt
        state = ScenarioState(x_f, v_f, x_r, v_r)
        a_r, mode, settled = control(i, t, state)
        g = state.gap - length
        if g < min_gap:
            min_gap, min_gap_t = g, t
        samples.append(TrajectorySample(t, state, a_r, mode))
        if g <= COLLISION_EPS:
            collision = CollisionEvent(t, state.gap)
            break
        if sv_halt is None and v_r <= 0.0:
            sv_halt = t
        if i == n_steps or (settled and v_r <= 0.0 and v_f <= 0.0):
            break

        a_f = pov_behavior.command(t, x_f, v_f)
        nx_r, nv_r, _ = advance_vehicle(x_r, v_r, a_r, dt)
        nx_f, nv_f, _ = advance_vehicle(x_f, v_f, a_f, dt)
        if (nx_f - nx_r) - length <= COLLISION_EPS:
            t_c, cstate = crossing(t, x_r, v_r, a_r, x_f, v_f, a_f, dt, length)
            samples.append(TrajectorySample(t_c, cstate, a_r, mode))
            collision = CollisionEvent(t_c, cstate.gap)
            if cstate.gap - length < min_gap:
                min_gap, min_gap_t = cstate.gap - length, t_c
            break
        x_r, v_r, x_f, v_f = nx_r, nv_r, nx_f, nv_f

    return ExecutionTrace(
        samples=tuple(samples),
        params=params,
        collision=collision,
        sv_halt_time=sv_halt,
        min_gap=min_gap + length,
        min_gap_time=min_gap_t,
    )


def integrate(
    params: RssParams,
    start: ScenarioState,
    sv_policy: Callable[[float, ScenarioState], float],
    pov_behavior: PovBehavior,
    dt: float,
    t_end: float,
) -> ExecutionTrace:
    """Fixed-step simulation of an arbitrary SV policy (t, state) -> a_r.

    Runs run_fixed_step with the policy sampled at every step, every
    sample recorded in AC mode, and no early stop.
    """

    def control(i, t, state):
        return sv_policy(t, state), AC, False

    return run_fixed_step(params, start, control, pov_behavior, dt, t_end)
