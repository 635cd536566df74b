"""The scalar kernels over arrays with one row per trial: build_profile,
analyze_gap and the supervised and unsupervised campaign episodes.  Each
branch is a mask, max(0.0, w) is np.where(w > 0.0, w, 0.0), and every value
comes from the scalar code's float operations in its order, so each row is
bit for bit the scalar result (tests/test_batch.py, tests/test_lockstep.py)."""
from __future__ import annotations

import numpy as np

from .audit import DEFAULT_ACCEL_TOL
from .dynamics import COLLISION_EPS, CollisionEvent, _overflow, check_step, crossing
from .rule import travel_arithmetic
from .supervisor import WINDOW_SLACK, decision_grid


def advance_vehicles(x, v, a, dt):
    """advance_vehicle for each row of the arrays x and v; a and dt may be
    arrays or floats."""
    held = (v <= 0.0) & (a <= 0.0)
    v_end = v + a * dt
    stops = v_end < 0.0  # so a < 0, as v >= 0 and dt > 0
    # -a only where the row stops, so no lane divides by zero
    moving = np.where(held, 0.0, np.where(stops, v / np.where(stops, -a, 1.0), dt))
    x_end = np.where(held, x, x + v * moving + 0.5 * a * moving * moving)
    # v_end <= 0 where held or stopping, so the velocity is 0 there
    return x_end, np.where(v_end > 0.0, v_end, 0.0), moving


def constant_runs(x0, v0, a, dt, n):
    """The positions and velocities after 0..n advance_vehicle calls at
    constant commands, (rows, n + 1) arrays for the rows of x0, v0 and a.
    cumsum (np.add.accumulate) sums in order, so the running sums of
    [v0, a*dt, ...] and [x0, v0*dt, C, v1*dt, C, ...], C = 0.5*a*dt*dt, are
    the scalar v + a*dt and (x + v*dt) + C up to the first step that holds
    or stops, which advance_vehicles takes; the vehicle rests after it.
    A row at rest (v0 <= 0, a <= 0) holds from step 0 and skips the sums."""
    x, v = np.repeat(x0[:, None], n + 1, axis=1), np.zeros((len(x0), n + 1))
    v[:, 0] = v0
    go = np.flatnonzero(~((v0 <= 0.0) & (a <= 0.0)))
    a = a[go, None]
    vg = np.concatenate((v0[go, None], np.repeat(a * dt, n, axis=1)), axis=1).cumsum(axis=1)
    terms = np.empty((len(go), 2 * n + 1))
    terms[:, 0], terms[:, 1::2], terms[:, 2::2] = x0[go], vg[:, :-1] * dt, 0.5 * a * dt * dt
    xg = terms.cumsum(axis=1)[:, ::2]
    # v is monotone, so a run that holds or stops has v[n] <= 0 and a <= 0
    r = np.flatnonzero((vg[:, -1] <= 0.0) & (a[:, 0] <= 0.0))
    vr, a = vg[r], a[r]
    odd = ((vr[:, :-1] <= 0.0) & (a <= 0.0)) | ((a < 0.0) & (vr[:, 1:] < 0.0))
    s = np.concatenate((odd, np.ones((len(r), 1), bool)), axis=1).argmax(axis=1)  # n if none
    x_end, _, _ = advance_vehicles(xg[r, s], vr[np.arange(len(r)), s], a[:, 0], dt)
    after = np.arange(n + 1) > s[:, None]
    xg[r], vg[r] = np.where(after, x_end[:, None], xg[r]), np.where(after, 0.0, vr)
    x[go], v[go] = xg, vg
    return x, v


def build_profiles(x0, v0, starts, accels, t_end):
    """build_profile for each row of the arrays x0, v0, t_end and the (rows
    or 1, pieces) schedules starts and accels, padded with +inf start times.

    Returns the segment fields (t0, t1, x0, v0, a) as a (5, rows, slots)
    array: piece i puts its moving segment in slot 2i and its standing one
    in slot 2i + 1, unused slots hold +inf and all-unused slots are dropped.
    """
    rows, pieces = len(x0), starts.shape[1]
    starts, accels = (np.broadcast_to(z, (rows, pieces)) for z in (starts, accels))
    x, v = x0, np.where(v0 > 0.0, v0, 0.0)
    zero = np.zeros(rows)
    out = np.empty((5, rows, 2 * pieces))
    with np.errstate(all="ignore"):
        for i in range(pieces):
            t, a = starts[:, i], accels[:, i]
            nxt = starts[:, i + 1] if i + 1 < pieces else np.inf
            t_next = np.where(t_end < nxt, t_end, nxt)
            span = t_next - t
            x_next, v_next, moving = advance_vehicles(x, v, a, span)
            active, whole = t < t_end, moving == span
            seg = [t, np.where(whole, t_next, t + moving), x, v, a]
            out[:, :, 2 * i] = np.where(active & (whole | (moving > 0.0)), seg, np.inf)
            seg = [t + moving, t_next, x_next, zero, zero]
            out[:, :, 2 * i + 1] = np.where(active & ~whole, seg, np.inf)
            x, v = x_next, v_next
    at_zero = t_end <= 0.0  # build_profile's single (0, 0, x0, max(0, v0), 0)
    out[:, at_zero, 0] = np.array([zero, zero, x0, np.where(v0 > 0.0, v0, 0.0), zero])[:, at_zero]
    return out[:, :, ~np.isinf(out[0]).all(axis=0)]


def _states(prof, u):
    """segment_state at each time of u on the last segment starting at or
    before it, the one analyze_gap's walk picks: merged stably behind the
    starts, each time sees the largest slot index met before it."""
    order = np.argsort(np.concatenate((prof[0], u), axis=1), axis=1, kind="stable")
    is_u = order >= prof.shape[2]
    last = np.maximum.accumulate(np.where(is_u, 0, order), axis=1)[is_u].reshape(u.shape)
    t0, t1, x0, v0, a = prof[:, np.arange(len(u))[:, None], last]
    lo = np.where(t0 > u, t0, u)
    dt = np.where(t1 < lo, t1, lo) - t0
    v = v0 + a * dt
    return x0 + v0 * dt + 0.5 * a * dt * dt, np.where(v > 0.0, v, 0.0), a


def _first_roots(g0, gv, ga, tau):
    """_first_root for each interval: (root, whether there is one)."""
    c = g0 - COLLISION_EPS
    disc = gv * gv - 2.0 * ga * c
    sq = np.sqrt(disc)
    r1, r2 = (-gv - sq) / ga, (-gv + sq) / ga
    r1, r2 = np.where(r2 < r1, r2, r1), np.where(r2 < r1, r1, r2)
    quad = (ga != 0.0) & (disc >= 0.0)
    in1 = quad & (0.0 <= r1) & (r1 <= tau)
    in2 = quad & (0.0 <= r2) & (r2 <= tau)
    r_lin = c / (-gv)
    lin = (ga == 0.0) & (gv < 0.0) & (r_lin <= tau)
    return np.where(in1, r1, np.where(in2, r2, r_lin)), in1 | in2 | lin


def analyze_gaps(prof_r, prof_f, length: float = 0.0):
    """analyze_gap for each row of two build_profiles results: (collision
    time, NaN where none; min gap), or its DomainError for the first row
    whose walk reads a gap that is not finite.  Repeated breakpoints move
    behind each row's sorted ones, as in the scalar set."""
    times = np.sort(np.concatenate((prof_r[0], prof_r[1], prof_f[0], prof_f[1]), axis=1))
    times[:, 1:][times[:, 1:] == times[:, :-1]] = np.inf
    times.sort(axis=1)
    u0 = times[:, : max(1, np.isfinite(times).sum(axis=1).max())]
    u1 = np.concatenate((u0[:, 1:], np.full((len(u0), 1), np.inf)), axis=1)
    with np.errstate(all="ignore"):
        g0, gv, ga = (f - r for f, r in zip(_states(prof_f, u0), _states(prof_r, u0)))
        g0 -= length
        tau, valid = u1 - u0, u1 < np.inf
        root, found = _first_roots(g0, gv, ga, tau)
        found &= valid
        # without a collision: the least interval start, end and interior vertex
        g1 = g0 + gv * tau + 0.5 * ga * tau * tau
        tv = -gv / ga
        gm = g0 + gv * tv + 0.5 * ga * tv * tv
        vertex = valid & (ga > 0.0) & (0.0 < tv) & (tv < tau)
        best = np.where(valid, np.minimum(g0, g1), np.inf).min(axis=1)
        best = np.minimum(np.minimum(g0[:, 0], best), np.where(vertex, gm, np.inf).min(axis=1))
        # with one: the start, else the earliest root
        rows, k = np.arange(len(u0)), found.argmax(axis=1)
        s = root[rows, k]
        g_col = g0[rows, k] + gv[rows, k] * s + 0.5 * ga[rows, k] * s * s
        at_start, hit = g0[:, 0] <= COLLISION_EPS, found.any(axis=1)
        col_t = np.where(at_start, u0[:, 0], np.where(hit, u0[rows, k] + s, np.nan))
        min_gap = np.where(at_start, g0[:, 0], np.where(hit, g_col, best)) + length
        # the scalar walk reads g0 up to the interval it stops in, g1 before it
        stop = np.where(at_start, 0, np.where(hit, k, u0.shape[1]))[:, None]
        cols = np.arange(u0.shape[1])
        bad = ((cols <= stop) & np.isfinite(u0) & ~np.isfinite(g0)) | (
            (cols < stop) & valid & ~np.isfinite(g1))
    if bad.any():
        r = bad.any(axis=1).argmax()
        raise _overflow(u0[r, bad[r].argmax()].item())
    return col_t, min_gap


# The supervisor's phase codes; _AC is no response episode (AC mode).
_AC, _WINDOW, _BRAKING, _HALTED = range(4)


def safe_distances(params, v_r, v_f):
    """rule.safe_distance of each pair of speeds in [0, inf), bit for bit,
    and whether it is defined: no travel overflows, where the scalar form
    raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # pow overflows to inf
        v_peak = v_r + params.a_max * params.rho
        response_travel, response_gain, sv_brake, pov_brake = travel_arithmetic(
            params, v_r, np.float_power(v_peak, 2), np.float_power(v_f, 2))
        sv_travel = response_travel + response_gain + sv_brake
        raw = sv_travel - pov_brake
    return np.where(raw > 0.0, raw, 0.0), (sv_travel < np.inf) & (pov_brake < np.inf)


def margins(params, x, v):
    """rule.margin of the states whose SV is row 2j and POV row 2j + 1 of
    the positions x and velocities v, bit for bit, and whether each is
    defined: its safe distance is, and its position difference is finite."""
    d_min, defined = safe_distances(params, v[0::2], v[1::2])
    with np.errstate(over="ignore", invalid="ignore"):
        g = x[1::2] - x[0::2] - params.vehicle_length
        return g - d_min, np.isfinite(g) & defined


def _block(x, v, a, dt, left):
    """Both vehicles' states over the next n = min(left, max(8, 2**13 //
    rows)) steps at constant commands, as (2, rows, n + 1) positions and
    velocities from the (2, rows) x and v and the commands a broadcast to
    them: about 2**13 episode steps a call."""
    n = min(left, max(8, 2 ** 13 // x.shape[1]))
    a = np.broadcast_to(a, x.shape).ravel()
    return (z.reshape(2, -1, n + 1) for z in constant_runs(x.ravel(), v.ravel(), a, dt, n))


def supervised_lockstep(params, cfg, starts, dt, t_end):
    """run_supervised of adversarial_ac (a_max) against worst_case_pov
    (-a_brake_max), then check_compliance of its trace, for each row
    (x_f, v_f, x_r, v_r) of starts, each row from event to event.

    Between events both commands are constant.  A round takes each row's
    next block of at most 32 steps from constant_runs and runs the scalar
    step on every sample of it as if the row's phase and command held; the
    first sample where they do not (an engagement, the window's end, a
    halt, a release), that is unsafe, or where the row ends is its event,
    and the row restarts from the state and supervisor there.  Returns
    (fallback, engagements, compliant) per row.  A row falls back when the
    scalar run would collide or raise (a margin it reads is not defined),
    or when a BC sample brakes weakly late in its episode; only its
    fallback flag is meaningful, and the scalar path must run it.
    """
    # 2**11 rows at a time bound the blocks' arrays: a 10k-episode call
    # peaks at 45 MB this way and at 64 MB in one piece
    if len(starts) > 2 ** 11:
        parts = [supervised_lockstep(params, cfg, starts[j:j + 2 ** 11], dt, t_end)
                 for j in range(0, len(starts), 2 ** 11)]
        return tuple(np.concatenate(z) for z in zip(*parts))
    k, cfg = decision_grid(params, cfg, dt, t_end)
    lo, hi = cfg.bounds(params)
    a_ac = min(hi, max(lo, params.a_max))  # decide's clamped command
    # proper_response_command for each phase code but braking
    commands = np.array([a_ac, min(params.a_max, max(-params.a_brake_min, a_ac)), 0.0, 0.0])
    rho, length, sb = params.rho, params.vehicle_length, cfg.switchback_margin
    weak = -params.a_brake_min + DEFAULT_ACCEL_TOL
    lookahead = np.array([[params.a_max], [-params.a_brake_max]])  # worst_case_successor
    n = len(starts)
    fallback, compliant, engagements = np.zeros(n, bool), np.ones(n, bool), np.zeros(n, int)
    n_steps = check_step(dt, t_end)
    # each row's sample s, its state (row 0 the SV, row 1 the POV), and the
    # supervisor after step s: phase, window clock, engagements, episode
    # start time and SV command, held over the row's block
    rows, s, x, v = np.arange(n), np.zeros(n, int), starts[:, [2, 0]].T, starts[:, [3, 1]].T
    phase, elapsed, eng = np.zeros(n, np.int8), np.zeros(n), np.zeros(n, int)
    ep_t, cmd = np.zeros(n), np.full(n, a_ac)
    j0 = 0  # the first round also takes step 0, from the start
    while len(rows):
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.stack((cmd, np.full(len(rows), -params.a_brake_max)))
            xs, vs = _block(x, v, a, dt, min(n_steps - s.min(), 32))
            X, V = xs[:, :, j0:], vs[:, :, j0:]
            i = s[:, None] + np.arange(j0, xs.shape[2])
            t, decision = i * dt, i % k == 0
            # advance_phase: window -> braking -> halted.  Only a window row
            # reads its clock; cumsum sums in order, so it is the scalar
            # elapsed + dt at each step
            el, win = np.zeros(i.shape), phase == _WINDOW
            clock = np.concatenate((elapsed[win, None], np.full(el[win].shape, dt)), axis=1)
            el[win] = clock.cumsum(axis=1)[:, 1:]
            p = phase[:, None]
            pa = p + (((p == _WINDOW) & (el >= rho)) | ((p == _BRAKING) & (V[0] <= 0.0)))
            (m,), (ok,) = margins(params, X, V)
            # the start in contact, or a step end that collides
            fail = ~ok | (X[1] - X[0] - length <= COLLISION_EPS)
            # decide, with the lookahead only where it reads it
            ac = decision & (pa == _AC)
            release = decision & (pa >= _BRAKING) & (m > sb)
            lr, lc = np.divmod(np.flatnonzero(ac | release), i.shape[1])
            w, wv, _ = advance_vehicles(X[:, lr, lc], V[:, lr, lc], lookahead, cfg.period)
            (m_w,), (ok_w,) = margins(params, w, wv)
            clear, blind = np.zeros(i.shape, bool), np.zeros(i.shape, bool)
            clear[lr, lc], blind[lr, lc] = m_w > 0.0, ~ok_w
            # InvariantBreach, or a lookahead the scalar margin cannot give
            fail |= (ac & ~(m > 0.0)) | blind
            engage = ac & ~clear
            pd = np.where(engage, _WINDOW, np.where(release & clear, _AC, pa))
            el = np.where(engage, 0.0, el)
            # braking, and a window step that would end past rho, brake to a halt
            braking = (pd == _BRAKING) | ((pd == _WINDOW) & (el + dt > rho + WINDOW_SLACK))
            moving = V[0] > 0.0
            c = np.where(braking, np.where(moving, -params.a_brake_min, 0.0), commands[pd])

            # check_compliance.  An episode starts at an engagement, where the
            # margin is > 0 (else the row fell back), so no start is unsafe.  An
            # AC sample violates the rule where its margin is <= 0, a BC one where
            # it also brakes weakly later than rho plus the median step after the
            # start: never seen under these commands, the scalar path decides it.
            # An unsafe sample is an event, so the verdict is read at events.
            bc, holds = pd != _AC, m > 0.0
            fail |= bc & ~holds & moving & (c > weak) & (t - ep_t[:, None] > rho)
            # a settled halt, or the last step, ends the run
            settled = (i == n_steps) | (
                decision & ((pd == _AC) | (pd == _HALTED)) & (V[0] <= 0.0) & (V[1] <= 0.0))
            unsafe = ~(holds | bc)
            event = fail | settled | unsafe | (pd != p) | (c != cmd[:, None])
        # each row's first event, else its block's last sample
        event[:, -1] = True
        j = event.argmax(axis=1)
        at = np.arange(len(rows)), j
        compliant[rows[unsafe[at]]] = False
        failed = fail[at]
        done = ~failed & settled[at]
        eng = eng + engage[at]
        ep_t = np.where(engage[at], t[at], ep_t)
        engagements[rows[done]] = eng[done]
        fallback[rows[failed]] = True
        kept = np.flatnonzero(~(failed | done))
        j = j[kept]
        rows, s, eng = rows[kept], s[kept] + j0 + j, eng[kept]
        x, v = xs[:, kept, j0 + j], vs[:, kept, j0 + j]
        ep_t, (phase, elapsed, cmd) = ep_t[kept], (z[kept, j] for z in (pd, el, c))
        j0 = 1
    return fallback, engagements, compliant


def unsupervised_runs(params, cfg, starts, dt, t_end):
    """run_supervised(..., supervised=False) of adversarial_ac against
    worst_case_pov for each row (x_f, v_f, x_r, v_r) of starts, as
    (fallback, collision) lists.  Both commands are constant, so
    constant_runs gives every step end; the first in contact before a
    settled decision step or the last step is located by dynamics.crossing.
    A row falls back, for the scalar path to run, where its start margin is
    not defined or not > 0, where it starts in contact or where a value
    overflows."""
    k, cfg = decision_grid(params, cfg, dt, t_end)
    lo, hi = cfg.bounds(params)
    a_r, a_f, length = min(hi, max(lo, params.a_max)), -params.a_brake_max, params.vehicle_length
    n_steps = check_step(dt, t_end)
    x, v = starts[:, [2, 0]].T, starts[:, [3, 1]].T
    (m,), (ok,) = margins(params, x, v)
    fallback = ~(ok & (m > 0.0)) | (x[1] - x[0] - length <= COLLISION_EPS)
    collision = [None] * len(starts)
    rows, x, v, i0 = np.flatnonzero(~fallback), x[:, ~fallback], v[:, ~fallback], 0
    while len(rows):
        with np.errstate(over="ignore", invalid="ignore"):
            xs, vs = _block(x, v, [[a_r], [a_f]], dt, n_steps + 1 - i0)
            n = xs.shape[2] - 1
            bad = ~np.isfinite(xs + vs).all(axis=(0, 2))
            hit = xs[1, :, 1:] - xs[0, :, 1:] - length <= COLLISION_EPS
        i = np.arange(i0, i0 + n)
        end = (i == n_steps) | ((i % k == 0) & (vs[0, :, :-1] <= 0.0) & (vs[1, :, :-1] <= 0.0))
        first, decided = (end | hit).argmax(axis=1), (end | hit).any(axis=1)
        fallback[rows[bad]] = True
        for r in np.flatnonzero(decided & ~bad & ~end[np.arange(len(rows)), first]):
            j = int(first[r])
            (x_r, x_f), (v_r, v_f) = xs[:, r, j].tolist(), vs[:, r, j].tolist()
            t_c, state = crossing((i0 + j) * dt, x_r, v_r, a_r, x_f, v_f, a_f, dt, length)
            collision[rows[r]] = CollisionEvent(t_c, state.gap)
        keep = ~(decided | bad)
        rows, x, v, i0 = rows[keep], xs[:, keep, -1], vs[:, keep, -1], i0 + n
    return fallback.tolist(), collision
