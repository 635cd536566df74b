"""The safety lemma in floats: the margin is the worst case's closest call.

Under the worst-case behaviours the least free space over [0, t_sv_halt]
is min(g0, g0 - d_raw) - vehicle_length = gap - vehicle_length - d_min,
which is rule.margin.  So a start whose margin is above COLLISION_EPS
never collides in the worst case, and the kernel's minimum gap less
vehicle_length is the margin up to rounding, bounded here by
tol = 1e-12 * max(1, gap).
"""
import random

from rsskit.core import ScenarioState
from rsskit.dynamics import COLLISION_EPS, worst_case_gap_analysis
from rsskit.rule import margin, safe_distance
from test_motion_rule import random_params


def test_worst_case_minimum_is_the_margin():
    rng = random.Random(2026)
    pool = [random_params(rng) for _ in range(2_000)]
    seen = {"coasting": 0, "length": 0, "near": 0, "collided": 0}
    for _ in range(30_000):
        params = rng.choice(pool)
        v_r = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        v_f = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        m = rng.choice((2e-9, 1e-3, rng.uniform(1e-6, 50.0)))
        gap = safe_distance(params, v_r, v_f) + params.vehicle_length + m
        start = ScenarioState(gap, v_f, 0.0, v_r)
        col_t, _, min_gap, _, _, _ = worst_case_gap_analysis(params, start)
        m = margin(params, start)
        tol = 1e-12 * max(1.0, gap)
        if m > COLLISION_EPS + tol:
            assert col_t is None, (params, start)
        if col_t is None:
            assert abs((min_gap - params.vehicle_length) - m) <= tol, (params, start, min_gap, m)
        seen["coasting"] += params.a_max == 0.0
        seen["length"] += params.vehicle_length > 0.0
        seen["near"] += m < 1e-8
        seen["collided"] += col_t is not None
    assert min(seen["coasting"], seen["length"], seen["near"]) > 5_000, seen
    # not even the 2e-9 margins that fall within COLLISION_EPS + tol collide
    assert seen["collided"] == 0, seen
