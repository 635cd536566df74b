"""The loop-based closed-form gap kernel as it stood before its
comparison-only rewrite: verbatim copies of build_profile, segment_state
and analyze_gap, kept as the oracle the kernel in rsskit.dynamics is held
to bit for bit.

advance_vehicle (the one stop rule), _first_root (the one root solver),
_overflow and COLLISION_EPS are shared with rsskit.dynamics, not copied:
the rewrite left them alone, so the oracle differs from the kernel only
in the walk it holds.
"""
import math

from rsskit.dynamics import COLLISION_EPS, _first_root, _overflow, advance_vehicle


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
