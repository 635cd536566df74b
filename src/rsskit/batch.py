"""build_profile and analyze_gap over arrays with one row per trial: each
branch is a mask, max(0.0, w) is np.where(w > 0.0, w, 0.0), and every value
comes from the scalar code's float operations in its order, so each row is
bit for bit the scalar kernel's result (tests/test_batch.py)."""
from __future__ import annotations

import numpy as np

from .dynamics import COLLISION_EPS


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
            # advance_vehicle(x, v, a, span): held, stops inside, moves through
            held = (v <= 0.0) & (a <= 0.0)
            stops = ~held & (a < 0.0) & (v + a * span < 0.0)
            moving = np.where(held, 0.0, np.where(stops, v / (-a), span))
            x_next = np.where(held, x, x + v * moving + 0.5 * a * moving * moving)
            # v + a * span <= 0 where held or stopping, so this is 0 there
            v_next = np.where(v + a * span > 0.0, v + a * span, 0.0)
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
    time, NaN where none; min gap).  Repeated breakpoints move behind each
    row's sorted ones, as in the scalar set."""
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
    return col_t, min_gap
