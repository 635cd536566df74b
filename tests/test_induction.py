"""The supervisor's inductive step, over every admissible one-period behaviour.

The simplex claim is an induction over decisions.  A decision keeps AC
mode (a) where the margin is > 0 and the one-period worst-case successor's
margin (the SV at a_max, the POV at -a_brake_max) is > 0; it releases BC
mode (c) under the same lookahead, once braking has begun and the margin
is above switchback_margin.  Either way, every admissible behaviour over
the period must then end at a margin > 0 and keep the free space above 0
inside the period: any SV command within the supervisor's bounds, held,
against a POV that runs two pieces in [-a_brake_max, POV_A_FWD_MAX].

The bulk verdicts come from the lockstep engine's lookahead arithmetic
(batch.advance_vehicles at [[a_max], [-a_brake_max]], then batch.margins)
and must agree with supervisor.decide on a subsample.  A successor's
margin may fall below the worst case's by rounding only: at most
64 * 2**-53 times the size of the terms the two margins are summed from.
"""
import numpy as np

from rsskit import batch
from rsskit.core import AC, RssParams, ScenarioState
from rsskit.dynamics import POV_A_FWD_MAX
from rsskit.errors import InvariantBreach
from rsskit.response import BRAKING, HALTED, ResponsePhase
from rsskit.supervisor import SupervisorConfig, SupervisorState, decide

TOL = 64 * 2.0 ** -53
PARAM_SETS, STARTS, SUCCESSORS, DECIDED = 40, 8_000, 8, 200


def random_params(rng):
    a_brake_min = rng.uniform(0.5, 8.0)
    return RssParams(
        rho=rng.uniform(0.05, 2.0),
        a_max=float(rng.choice([0.0, rng.uniform(0.0, 5.0)])),
        a_brake_min=a_brake_min,
        a_brake_max=a_brake_min * rng.uniform(1.05, 3.0),
        vehicle_length=float(rng.choice([0.0, 4.5])),
    )


def random_config(rng, params):
    """A decision interval up to rho, and command bounds of either kind."""
    period = min(params.rho, float(rng.choice([0.01, 0.05, 0.1, 0.3, params.rho])))
    bounds = None if rng.random() < 0.5 else (
        -params.a_brake_min * rng.uniform(0.2, 2.0), params.a_max * rng.uniform(0.0, 1.0))
    return SupervisorConfig(period, rng.uniform(0.0, 5.0), bounds)


def random_starts(rng, params, n):
    """(2, n) positions and speeds, row 0 the SV and row 1 the POV, at
    margins of up to 10 scaled by 1e-6, 1e-2 or 1, at a random offset."""
    v = np.where(rng.random((2, n)) < 0.1, 0.0, rng.uniform(0.0, 60.0, (2, n)))
    d_min, _ = batch.safe_distances(params, v[0], v[1])
    m = rng.choice([1e-6, 1e-2, 1.0], n) * rng.uniform(0.0, 10.0, n)
    x_r = rng.uniform(-100.0, 100.0, n)
    return np.stack((x_r, x_r + (params.vehicle_length + d_min + m))), v


def with_ends(rng, lo, hi, end, n):
    """n draws from [lo, hi], a tenth of them exactly end."""
    return np.where(rng.random(n) < 0.1, end, rng.uniform(lo, hi, n))


def size(params, x, v):
    """The size of the terms a margin is summed from."""
    d_min, _ = batch.safe_distances(params, v[0], v[1])
    return np.abs(x).sum(axis=0) + params.vehicle_length + d_min


def check_decisions(rng, params, cfg, x, v, kept, released):
    """decide from AC mode and from braking or halted gives the verdicts."""
    lo, hi = cfg.bounds(params)
    (m,), _ = batch.margins(params, x, v)
    for i in rng.choice(x.shape[1], DECIDED, replace=False):
        (x_r, x_f), (v_r, v_f) = x[:, i].tolist(), v[:, i].tolist()
        state, command = ScenarioState(x_f, v_f, x_r, v_r), rng.uniform(lo - 1.0, hi + 1.0)
        if m[i] > 0.0:
            new, cmd = decide(params, cfg, SupervisorState(), state, command)
            assert (new.mode == AC) == kept[i]
            assert cmd == min(hi, max(lo, command)) or not kept[i]
        else:
            try:
                decide(params, cfg, SupervisorState(), state, command)
            except InvariantBreach:
                pass
            else:
                raise AssertionError(f"an AC decision at margin {m[i]!r} was taken")
        phase = ResponsePhase(BRAKING if rng.random() < 0.5 else HALTED)
        new, _ = decide(params, cfg, SupervisorState(phase), state, command)
        assert (new.mode == AC) == released[i]


def successors(rng, params, cfg, x, v):
    """SUCCESSORS admissible one-period behaviours from each state: the SV
    state after its command, held, the POV's after its two pieces, and the
    least free space inside the period."""
    lo, hi = cfg.bounds(params)
    p, n = cfg.period, x.shape[1] * SUCCESSORS
    x, v = x.repeat(SUCCESSORS, axis=1), v.repeat(SUCCESSORS, axis=1)
    a_r = with_ends(rng, lo, hi, hi, n)
    a_f = with_ends(rng, -params.a_brake_max, POV_A_FWD_MAX, -params.a_brake_max, (2, n))
    cut = rng.uniform(0.0, p, n)
    x_r, v_r, _ = batch.advance_vehicles(x[0], v[0], a_r, p)
    x_f, v_f, _ = batch.advance_vehicles(x[1], v[1], a_f[0], cut)
    x_f, v_f, _ = batch.advance_vehicles(x_f, v_f, a_f[1], p - cut)
    t_end = np.full(n, p)
    prof_r = batch.build_profiles(x[0], v[0], np.zeros((1, 1)), a_r[:, None], t_end)
    prof_f = batch.build_profiles(x[1], v[1], np.stack((np.zeros(n), cut), axis=1), a_f.T, t_end)
    _, min_gap = batch.analyze_gaps(prof_r, prof_f, params.vehicle_length)
    return np.stack((x_r, x_f)), np.stack((v_r, v_f)), min_gap - params.vehicle_length


def test_every_admissible_successor_of_a_kept_or_released_decision_is_safe():
    rng = np.random.default_rng(17)
    counted = released_total = 0
    for _ in range(PARAM_SETS):
        params = random_params(rng)
        cfg = random_config(rng, params)
        x, v = random_starts(rng, params, STARTS)
        (m,), (ok,) = batch.margins(params, x, v)
        wx, wv, _ = batch.advance_vehicles(x, v, np.array([[params.a_max], [-params.a_brake_max]]), cfg.period)
        (m_w,), (ok_w,) = batch.margins(params, wx, wv)
        assert ok.all() and ok_w.all()
        kept = (m > 0.0) & (m_w > 0.0)  # (a)
        released = (m > cfg.switchback_margin) & (m_w > 0.0)  # (c), a subset of (a)
        check_decisions(rng, params, cfg, x, v, kept, released)

        k = np.flatnonzero(kept)
        sx, sv, free = successors(rng, params, cfg, x[:, k], v[:, k])
        (m_s,), (ok_s,) = batch.margins(params, sx, sv)
        worst = m_w[k].repeat(SUCCESSORS)
        scale = size(params, sx, sv) + size(params, wx[:, k], wv[:, k]).repeat(SUCCESSORS)
        assert ok_s.all()
        assert (m_s >= worst - TOL * scale).all(), (params, cfg, (m_s - worst).min())
        assert (m_s > 0.0).all(), (params, cfg, m_s.min())
        assert (free > 0.0).all(), (params, cfg, free.min())
        counted += len(m_s)
        released_total += released.sum()
    assert counted >= 1_000_000 and released_total >= 10_000, (counted, released_total)
