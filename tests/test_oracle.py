"""The closed-form gap kernel against its loop-based oracle, bit for bit.

rsskit.dynamics reads segment states inline and clamps with comparisons
instead of min, max and segment_state calls; tests/oracle.py keeps the
form it replaced.  Every result here must equal the oracle's, by repr
(which also tells -0.0 from 0.0) wherever signed zeros or overflows are
fed in, and every refusal must carry the oracle's DomainError message.
"""
import random

import oracle
from rsskit import dynamics
from rsskit.core import RssParams, ScenarioState
from rsskit.dynamics import COLLISION_EPS, worst_case_gap_analysis, worst_case_sv_halt
from rsskit.errors import DomainError
from rsskit.rule import safe_distance
from test_motion_rule import random_params, random_schedules


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


def oracle_worst_case(params, start):
    """worst_case_gap_analysis on the oracle's profiles and walk."""
    t_sv_halt = worst_case_sv_halt(params, start.v_r)
    sched_r = [(0.0, params.a_max), (params.rho, -params.a_brake_min)]
    segs_r = oracle.build_profile(start.x_r, start.v_r, sched_r, t_sv_halt)
    segs_f = oracle.build_profile(start.x_f, start.v_f, [(0.0, -params.a_brake_max)], t_sv_halt)
    gap = oracle.analyze_gap(segs_r, segs_f, params.vehicle_length)
    return gap + (t_sv_halt, start.v_f / params.a_brake_max)


def check_pair(segs_r, segs_f, length):
    got = outcome(dynamics.analyze_gap, segs_r, segs_f, length)
    assert got == outcome(oracle.analyze_gap, segs_r, segs_f, length), (segs_r, segs_f, length)
    return got


def test_kernel_matches_the_oracle_on_random_schedules():
    """The 100k schedules of tests/test_motion_rule.py, compared with ==
    (the edge cases below compare reprs): each profile, then each profile
    against the next one's, and every fifth with its first segment dropped,
    so that the walk clamps to a segment starting after the breakpoint."""
    rng = random.Random(7)
    profiles, collided = [], 0
    for x0, v0, sched, t_end in random_schedules(20261018, 100_000):
        segs = dynamics.build_profile(x0, v0, sched, t_end)
        assert segs == oracle.build_profile(x0, v0, sched, t_end)
        profiles.append(segs)
    for i, (segs_r, segs_f) in enumerate(zip(profiles, profiles[1:])):
        length = rng.choice((0.0, 4.5))
        got = dynamics.analyze_gap(segs_r, segs_f, length)
        assert got == oracle.analyze_gap(segs_r, segs_f, length), (segs_r, segs_f, length)
        collided += got[0] is not None
        if i % 5 == 0 and len(segs_r) > 1:
            check_pair(segs_r[1:], segs_f, length)
    assert 10_000 < collided < 90_000


def test_worst_case_matches_the_oracle():
    rng = random.Random(31)
    pool = [random_params(rng) for _ in range(1_000)] + [
        RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=length) for length in (0.0, 4.5)
    ] * 500
    verdicts = {True: 0, False: 0}
    for _ in range(50_000):
        params = rng.choice(pool)
        v_r = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        v_f = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        m = rng.choice((0.0, COLLISION_EPS, 5e-10, 2e-9, rng.uniform(-5.0, 50.0)))
        start = ScenarioState(safe_distance(params, v_r, v_f) + params.vehicle_length + m, v_f, 0.0, v_r)
        got = worst_case_gap_analysis(params, start)
        assert repr(got) == repr(oracle_worst_case(params, start)), (params, start)
        verdicts[got[0] is None] += 1
    assert min(verdicts.values()) > 10_000


def test_kernel_matches_the_oracle_at_the_edges():
    paper = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=4.5)
    coasting = RssParams(0.5, 0.0, 4.0, 8.0)
    sched = [(0.0, -4.0), (2.0, 1.0), (3.0, -8.0)]
    # t_end <= 0, v0 == 0 and -0.0, a negative v0, stops exactly on a breakpoint
    for t_end in (0.0, -0.0, -1.0, 1e-300, 2.0, 3.0, 5.0):
        for v0 in (0.0, -0.0, -3.0, 8.0, 16.0, 5e-324):
            for x0 in (0.0, -0.0, 10.0):
                for s in (sched, sched[:1], [(0.0, 0.0)], [(0.0, -0.0), (1.0, 2.0)],
                          [(-0.0, 2.0), (1.0, -8.0)]):
                    segs = dynamics.build_profile(x0, v0, s, t_end)
                    assert repr(segs) == repr(oracle.build_profile(x0, v0, s, t_end))
                    check_pair(segs, oracle.build_profile(x0 + 9.0, 8.0, sched, t_end), 0.0)
                    check_pair(oracle.build_profile(-x0, 8.0, sched, t_end), segs, 4.5)
    # worst cases whose SV halts at 0, or whose POV halts exactly at the SV halt
    for params in (paper, coasting):
        for v_r in (0.0, -0.0, 8.0, 20.0):
            t_halt = worst_case_sv_halt(params, v_r)
            for v_f in (0.0, -0.0, params.a_brake_max * t_halt, 30.0):
                d = safe_distance(params, v_r, v_f)
                for gap in (d + params.vehicle_length, d + params.vehicle_length + 1.0, 0.0, -0.0):
                    start = ScenarioState(gap, v_f, 0.0, v_r)
                    assert outcome(worst_case_gap_analysis, params, start) == outcome(
                        oracle_worst_case, params, start)


def test_kernel_matches_the_oracle_where_positions_overflow():
    raised = 0
    for x0 in (1e308, 1.7e308, -1.7e308):
        for v0 in (1e154, 1e300, 1.7e308):
            for a in (0.0, 2.0, -8.0, 1e308):
                segs = dynamics.build_profile(x0, v0, [(0.0, a), (1.0, -a)], 10.0)
                assert repr(segs) == repr(oracle.build_profile(x0, v0, [(0.0, a), (1.0, -a)], 10.0))
                other = dynamics.build_profile(0.0, 1.0, [(0.0, 0.0)], 10.0)
                raised += check_pair(other, segs, 0.0).startswith("DomainError")
                raised += check_pair(segs, other, 4.5).startswith("DomainError")
    for v in (1e154, 1e200, 1.7e308):
        start = ScenarioState(1e308, v, 0.0, v)
        got = outcome(worst_case_gap_analysis, RssParams(0.3, 2.0, 4.0, 8.0), start)
        assert got == outcome(oracle_worst_case, RssParams(0.3, 2.0, 4.0, 8.0), start)
        raised += got.startswith("DomainError")
    assert 10 < raised < 75
