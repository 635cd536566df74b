"""The lockstep supervised campaign and the array negative control against
the scalar loop.

verify_supervised_safety runs its supervised episodes through
rsskit.batch.supervised_lockstep, and its negative control through
rsskit.batch.unsupervised_runs.  Its outcome must equal, with ==, that of
a test-local copy of the scalar campaign (run_supervised plus
check_compliance per episode), and where the scalar campaign raises, the
array one must raise the same error type with the same message.  The
config matrix covers at least 10,000 episodes.  Row by row, each episode
the engine finishes must have the scalar run's engagement count and
compliance verdict, and on campaign starts it must finish every episode
itself, as a campaign that handed back every row would still compare
equal.  Both engines' safety margins square by multiplication, which is
correctly rounded in Python and numpy alike, so the array margin is the
scalar one bit for bit; the near-threshold tests pin that on speeds where
libm pow would square differently.
"""
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rsskit.audit import check_compliance
from rsskit import dynamics, verify
from rsskit.batch import margins, safe_distances, supervised_lockstep, unsupervised_runs
from rsskit.core import RssParams, ScenarioState
from rsskit.dynamics import worst_case_pov
from rsskit.errors import DomainError, RssError
from rsskit.rule import margin, safe_distance
from rsskit.supervisor import (
    SupervisorConfig, adversarial_ac, decision_grid, run_supervised, worst_case_successor,
)
from rsskit.verify import (
    CHUNK, CampaignConfig, CampaignOutcome, _state_key, verify_supervised_safety,
)

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)
LONG = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=4.5)
COASTING = RssParams(0.5, 0.0, 3.0, 6.0)  # a_max 0: the SV holds its speed or brakes


def scalar_campaign(params, sup_cfg, cfg, supervised=True):
    """verify_supervised_safety as it was before the lockstep engine."""
    rng = np.random.default_rng(cfg.seed)
    outcome = CampaignOutcome("supervised_negative" if not supervised else "supervised")
    pov = worst_case_pov(params)
    ac = adversarial_ac(params)
    collisions = 0
    noncompliant = 0
    engagements = 0

    for _ in range(cfg.n_trials):
        v_r = float(rng.uniform(cfg.v_min, cfg.v_max))
        v_f = float(rng.uniform(cfg.v_min, cfg.v_max))
        margin_ = cfg.margin_max * (1.0 - float(rng.random()))
        gap = safe_distance(params, v_r, v_f) + params.vehicle_length + margin_
        start = ScenarioState(gap, v_f, 0.0, v_r)
        trace = run_supervised(
            params, sup_cfg, start, ac, pov,
            dt=cfg.sim_dt, t_end=60.0, supervised=supervised,
        )
        outcome.trials_run += 1
        engagements += trace.bc_engagements
        if trace.collision is not None:
            collisions += 1
            if supervised:
                outcome.counterexamples.append(
                    {"v_r": v_r, "v_f": v_f, "gap": gap, "behavior": "adversarial_ac",
                     "collision_t": trace.collision.t, "source": "random"}
                )
        if supervised:
            compliant, _ = check_compliance(trace.to_trajectory())
            if not compliant:
                noncompliant += 1
                outcome.counterexamples.append(
                    {"v_r": v_r, "v_f": v_f, "gap": gap, "behavior": "adversarial_ac",
                     "collision_t": None, "source": "noncompliant"}
                )

    outcome.stats["collisions"] = collisions
    outcome.stats["noncompliant"] = noncompliant
    outcome.stats["bc_engagements"] = engagements
    outcome.counterexamples.sort(key=_state_key)
    return outcome


def result(campaign, *args, **kwargs):
    """The outcome dict, or the (type, message) of the error raised."""
    try:
        return campaign(*args, **kwargs).to_dict()
    except RssError as exc:
        return type(exc), str(exc)


# (params, supervisor config fields, campaign config fields, episodes)
MATRIX = {
    "default": (PAPER, {}, {}, 3000),
    "dt_not_dividing_period": (PAPER, {}, {"sim_dt": 0.03}, 1000),
    "period_equals_rho": (PAPER, {"period": 0.3}, {}, 1000),
    "vehicle_length": (LONG, {}, {}, 1000),
    "command_bounds": (PAPER, {"sv_command_bounds": (-2.0, 1.0)}, {}, 1000),
    "switchback_margin_0": (PAPER, {"switchback_margin": 0.0}, {}, 1000),
    "a_max_0": (COASTING, {}, {}, 1000),
    "dyadic_dt": (COASTING, {"period": 0.25}, {"sim_dt": 0.125}, 500),
    "small_margins": (PAPER, {}, {"margin_max": 1e-3}, 1000),
    "halted_starts": (PAPER, {}, {"v_min": 0.0, "v_max": 0.0}, 200),
    "v_max_1e9": (PAPER, {}, {"v_max": 1e9}, 200),
    "margin_max_1e-12": (PAPER, {}, {"margin_max": 1e-12}, 200),
    "margin_max_1e-9": (PAPER, {}, {"margin_max": 1e-9}, 200),
    "margin_max_1e-8": (PAPER, {}, {"margin_max": 1e-8}, 300),
    "near_overflow": (PAPER, {}, {"v_min": 1.2e154, "v_max": 1.3e154}, 3),
    # d_min + margin overflows for some starts: ScenarioState, not
    # safe_distance, refuses them
    "gap_overflow": (PAPER, {}, {"v_min": 1.2e154, "v_max": 1.3e154,
                                 "margin_max": sys.float_info.max}, 50),
    "negative_speeds": (PAPER, {}, {"v_min": -1.0}, 200),
    "period_above_rho": (PAPER, {"period": 0.5}, {}, 10),
    "no_trials": (PAPER, {}, {}, 0),
}


def test_matrix_covers_10k_episodes():
    assert sum(n for *_, n in MATRIX.values()) >= 10_000


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_campaign_matches_the_scalar_loop(name):
    params, sup_fields, fields, n = MATRIX[name]
    sup_cfg = SupervisorConfig(**sup_fields)
    cfg = CampaignConfig(seed=len(name), n_trials=n, **fields)
    want = result(scalar_campaign, params, sup_cfg, cfg)
    assert result(verify_supervised_safety, params, sup_cfg, cfg) == want


@pytest.mark.parametrize("name, want", [
    ("v_max_1e9", "must start with the safety condition true"),
    ("margin_max_1e-12", "must start with the safety condition true"),
    ("negative_speeds", "velocities must be finite and >= 0"),
    ("gap_overflow", "positions must be finite"),
    ("period_above_rho", "must not exceed rho"),
])
def test_error_configs_raise(name, want):
    # the matrix compares errors too; these configs must reach one
    params, sup_fields, fields, n = MATRIX[name]
    got = result(verify_supervised_safety, params, SupervisorConfig(**sup_fields),
                 CampaignConfig(seed=len(name), n_trials=n, **fields))
    assert isinstance(got, tuple) and want in got[1]


def test_margin_max_1e_9_collides_through_the_fallback():
    out = verify_supervised_safety(PAPER, SupervisorConfig(),
                                   CampaignConfig(seed=0, n_trials=200, margin_max=1e-9))
    assert out.stats["collisions"] == 200


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_negative_control_matches_the_scalar_loop(name):
    params, sup_fields, fields, n = MATRIX[name]
    sup_cfg = SupervisorConfig(**sup_fields)
    cfg = CampaignConfig(seed=len(name), n_trials=min(n, 500), **fields)
    want = result(scalar_campaign, params, sup_cfg, cfg, supervised=False)
    assert result(verify_supervised_safety, params, sup_cfg, cfg, supervised=False) == want


@pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "negative"])
@pytest.mark.parametrize("name", ["default", "margin_max_1e-9", "negative_speeds", "gap_overflow", "no_trials"])
def test_campaign_does_not_depend_on_the_chunk(name, supervised, monkeypatch):
    # chunks of 7 starts: margin_max_1e-9 hands every episode back to the
    # scalar path, chunk by chunk, and negative_speeds and gap_overflow
    # refuse a start past the first chunk (trials 27 and 41)
    params, sup_fields, fields, n = MATRIX[name]
    sup_cfg = SupervisorConfig(**sup_fields)
    cfg = CampaignConfig(seed=len(name), n_trials=min(n, 500), **fields)
    want = result(scalar_campaign, params, sup_cfg, cfg, supervised=supervised)
    monkeypatch.setattr(verify, "CHUNK", 7)
    assert result(verify_supervised_safety, params, sup_cfg, cfg, supervised=supervised) == want


def test_negative_control_memory_is_bounded_in_trials():
    # the episodes run CHUNK at a time, so four times as many trials do not
    # raise the peak much; in one engine call it grew with the trial count.
    # The SV brakes at 3 m/s^2, so that only about a quarter of the episodes
    # collide and locating the crossings keeps the test short.
    sup_cfg = SupervisorConfig(sv_command_bounds=(-4.0, -3.0))

    def peak(n):
        tracemalloc.start()
        try:
            verify_supervised_safety(PAPER, sup_cfg, CampaignConfig(seed=3, n_trials=n),
                                     supervised=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * CHUNK) < 2 * peak(CHUNK)


def scalar_collision(params, sup_cfg, start, dt, t_end=60.0):
    """The collision sample of the scalar negative-control episode, or None."""
    return run_supervised(params, sup_cfg, start, adversarial_ac(params), worst_case_pov(params),
                          dt=dt, t_end=t_end, supervised=False).collision


@pytest.mark.parametrize("params, sup_fields, dt", [
    (LONG, {}, 0.01),
    (PAPER, {}, 0.03),
    (PAPER, {"sv_command_bounds": (-4.0, 0.0)}, 0.05),  # the SV coasts
    (LONG, {"sv_command_bounds": (-4.0, -1.0)}, 0.03),  # the SV brakes to a halt
    (COASTING, {"period": 0.25}, 0.125),
], ids=["length4.5", "dt0.03", "coasting_sv", "braking_sv", "dyadic_dt"])
def test_negative_control_collisions_match_the_scalar_ones(params, sup_fields, dt, monkeypatch):
    """Each episode's collision sample, or None where it settles, equals the
    scalar run's, and refine_crossing runs once per collision."""
    rng = np.random.default_rng(int(dt * 1000))
    starts = []
    for v_r, v_f, m in rng.uniform([0.0, 0.0, 0.0], [40.0, 40.0, 50.0], (80, 3)).tolist():
        gap = safe_distance(params, v_r, v_f) + params.vehicle_length + m + 1e-3
        starts.append(ScenarioState(gap, v_f, 0.0, v_r))
    sup_cfg = SupervisorConfig(**sup_fields)
    want = [scalar_collision(params, sup_cfg, s, dt) for s in starts]
    calls = []
    refine = dynamics.refine_crossing
    monkeypatch.setattr(dynamics, "refine_crossing", lambda *args: calls.append(args) or refine(*args))
    fallback, got = unsupervised_runs(params, sup_cfg, np.array(starts), dt, 60.0)
    assert not any(fallback)
    assert got == want
    assert len(calls) == sum(c is not None for c in want) > 0
    if "sv_command_bounds" in sup_fields:  # a slow SV halts or runs out of time
        assert None in want


def test_negative_control_hands_back_starts_in_contact():
    # a margin > 0 with free space <= COLLISION_EPS: the scalar run collides at 0
    start = ScenarioState(1e-10, 30.0, 0.0, 0.0)
    assert scalar_collision(PAPER, SupervisorConfig(), start, 0.05).t == 0.0
    fallback, _ = unsupervised_runs(PAPER, SupervisorConfig(), np.array([start]), 0.05, 60.0)
    assert fallback == [True]


def test_negative_control_ends_at_the_horizon():
    # the scalar loop takes no step from its last sample, so a crossing in
    # the step after it is no collision
    start, dt = ScenarioState(60.0, 10.0, 0.0, 20.0), 0.05

    def scalar(t_end):
        return scalar_collision(PAPER, SupervisorConfig(), start, dt, t_end)

    last = int(scalar(60.0).t / dt)  # the step that crosses
    assert scalar(last * dt) is None and scalar((last + 1) * dt) is not None
    for t_end in (last * dt, (last + 1) * dt):
        fallback, got = unsupervised_runs(PAPER, SupervisorConfig(), np.array([start]), dt, t_end)
        assert fallback == [False] and got == [scalar(t_end)]


# ---------------------------------------------------------------------------
# near the thresholds

def pow_differs(params, rng, count):
    """Seeded (v_r, v_f) where x*x and pow give a different v_peak or v_f
    square, so an engine squaring by pow would give a different margin."""
    found = []
    v_peak = params.a_max * params.rho
    while len(found) < count:
        v_r, v_f = (float(v) for v in rng.uniform(0.0, 60.0, 2))
        if (v_r + v_peak) ** 2 != np.float64(v_r + v_peak) * (v_r + v_peak) or (
            v_f ** 2 != np.float64(v_f) * v_f
        ):
            found.append((v_r, v_f))
    return found


def gaps_straddling(f, target, gap):
    """Gaps next to gap where the scalar f(gap) is target or its
    neighbours: the last gap below target, and the first ones at and
    above it, walking gap one ulp at a time."""
    for _ in range(4):  # Newton steps: f(gap) moves about one for one with gap
        gap += target - f(gap)
    while f(gap) >= target:
        gap = math.nextafter(gap, -math.inf)
    out = [gap]
    while f(gap) <= target or len(out) < 3:
        gap = math.nextafter(gap, math.inf)
        out.append(gap)
    return out


def pow_square(x):
    """Python's x ** 2, inf where it overflows."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def first_overflowing_square():
    """The least float whose ** 2 overflows; sqrt(max) squares to a float."""
    v = math.sqrt(sys.float_info.max)
    while pow_square(v) < math.inf:
        v = math.nextafter(v, math.inf)
    return v


@pytest.mark.parametrize("params", [PAPER, RssParams(0.3, 2.0, 0.1, 0.2)], ids=["paper", "weak_brakes"])
def test_safe_distances_match_the_scalar_bit_for_bit(params):
    # both engines square by multiplication: batch.safe_distances is
    # rule.safe_distance bit for bit, and undefined exactly where it raises
    rng = np.random.default_rng(13)
    size = 10_000
    families = {
        "speeds": rng.uniform(0.0, 60.0, size),
        "v_peak": rng.uniform(0.0, 60.0, size) + params.a_max * params.rho,
        "log_uniform": np.exp2(rng.uniform(-1074.0, 1024.0, size)),
        "overflow_edge": first_overflowing_square() * rng.uniform(0.999, 1.001, size),
        "subnormal": rng.uniform(0.0, 2.0 ** -1022, size),
        # speeds outside the domain, half of them: the scalar raises, the row is undefined
        "inf": np.where(rng.random(size) < 0.5, np.inf, rng.uniform(0.0, 60.0, size)),
        "nan": np.where(rng.random(size) < 0.5, np.nan, rng.uniform(0.0, 60.0, size)),
    }
    for name, v in families.items():
        # each speed as v_r and as v_f, against another of the family and 0
        v_r = np.concatenate((v, v, np.zeros(size)))
        v_f = np.concatenate((rng.permutation(v), np.zeros(size), v))
        d_min, defined = safe_distances(params, v_r, v_f)
        want = []
        for a, b in zip(v_r.tolist(), v_f.tolist()):
            try:
                want.append(safe_distance(params, a, b))
            except DomainError:
                want.append(None)
        assert defined.tolist() == [w is not None for w in want], name
        assert d_min[defined].tolist() == [w for w in want if w is not None], name
        if name in ("log_uniform", "inf", "nan") or (name == "overflow_edge" and params is PAPER):
            assert 0 < defined.sum() < len(want), name  # the edge is among the draws


@pytest.mark.parametrize("params", [PAPER, LONG], ids=["length0", "length4.5"])
def test_margin_comparisons_match_the_scalar_ones(params):
    sb = SupervisorConfig().switchback_margin
    states = []
    for v_r, v_f in pow_differs(params, np.random.default_rng(11), 150):
        for target in (0.0, sb):
            def f(gap):
                return margin(params, ScenarioState(gap, v_f, 0.0, v_r))
            gap0 = safe_distance(params, v_r, v_f) + params.vehicle_length + target
            states += [ScenarioState(g, v_f, 0.0, v_r) for g in gaps_straddling(f, target, gap0)]
    x = np.array([[s.x_r for s in states], [s.x_f for s in states]])
    v = np.array([[s.v_r for s in states], [s.v_f for s in states]])
    m, ok = margins(params, x, v)
    assert ok.all()
    assert m[0].tolist() == [margin(params, s) for s in states]


def test_margins_defined_exactly_where_the_scalar_is():
    # the scalar margin raises where a travel overflows: at the first speed
    # whose square does, not at 1e154 just below it
    edge = first_overflowing_square()
    below = math.nextafter(edge, 0.0)
    speeds = [(0.0, 0.0), (30.0, 30.0), (1e154, 0.0), (below, 0.0), (edge, 0.0),
              (1e200, 0.0), (0.0, below), (0.0, edge), (0.0, 1e200), (below, below)]
    states = [ScenarioState(1e300, v_f, 0.0, v_r) for v_r, v_f in speeds]
    states.append(ScenarioState(1e308, 0.0, -1e308, 0.0))  # the positions' difference overflows
    x = np.array([[s.x_r for s in states], [s.x_f for s in states]])
    v = np.array([[s.v_r for s in states], [s.v_f for s in states]])
    m, ok = margins(PAPER, x, v)
    assert ok[0].tolist() == [True, True, True, True, False, False,
                              True, False, False, True, False]
    for j, s in enumerate(states):
        try:
            want = margin(PAPER, s)
        except DomainError:
            assert not ok[0, j]
            continue
        assert ok[0, j] == math.isfinite(s.x_f - s.x_r)
        if ok[0, j]:
            assert m[0, j] == want


def lockstep_or_scalar(params, starts, sup_cfg=SupervisorConfig(), dt=0.05, t_end=60.0):
    """(engagements, compliant) of each start the lockstep finishes, from
    the lockstep and from the scalar run; a start it hands back must be
    one the scalar run raises on or collides in."""
    fallback, eng, ok = supervised_lockstep(params, sup_cfg, np.array(starts), dt, t_end)
    got, want = [], []
    for j, start in enumerate(starts):
        try:
            trace = run_supervised(params, sup_cfg, start, adversarial_ac(params),
                                   worst_case_pov(params), dt=dt, t_end=t_end)
        except RssError:
            assert fallback[j]
            continue
        if fallback[j]:
            # only a collision is left to send a finished run to the scalar path
            assert trace.collision is not None
            continue
        got.append((int(eng[j]), bool(ok[j])))
        want.append((trace.bc_engagements, check_compliance(trace.to_trajectory())[0]))
    return got, want


@pytest.mark.parametrize("params", [PAPER, LONG], ids=["length0", "length4.5"])
def test_first_decision_at_the_threshold(params):
    """Starts whose start margin or first lookahead margin is 0 or next to
    it: the lockstep breaks, engages or keeps AC as decide does."""
    period = SupervisorConfig().period
    at_start, at_lookahead = [], []
    for v_r, v_f in pow_differs(params, np.random.default_rng(12), 60):
        def start_margin(gap):
            return margin(params, ScenarioState(gap, v_f, 0.0, v_r))

        def lookahead(gap):
            return margin(params, worst_case_successor(params, ScenarioState(gap, v_f, 0.0, v_r), period))

        gap0 = safe_distance(params, v_r, v_f) + params.vehicle_length
        at_start += [ScenarioState(g, v_f, 0.0, v_r) for g in gaps_straddling(start_margin, 0.0, gap0)]
        at_lookahead += [ScenarioState(g, v_f, 0.0, v_r) for g in gaps_straddling(lookahead, 0.0, gap0)]
    # a start at margin 0 raises or collides within COLLISION_EPS: the scalar path runs it
    assert lockstep_or_scalar(params, at_start) == ([], [])
    got, want = lockstep_or_scalar(params, at_lookahead)
    assert got == want and len(got) >= len(at_lookahead) // 5


# ---------------------------------------------------------------------------
# the event-to-event engine row by row

def campaign_starts(params, cfg):
    """The starts verify_supervised_safety draws for cfg."""
    rng = np.random.default_rng(cfg.seed)
    starts = []
    for _ in range(cfg.n_trials):
        v_r = float(rng.uniform(cfg.v_min, cfg.v_max))
        v_f = float(rng.uniform(cfg.v_min, cfg.v_max))
        margin_ = cfg.margin_max * (1.0 - float(rng.random()))
        gap = safe_distance(params, v_r, v_f) + params.vehicle_length + margin_
        starts.append(ScenarioState(gap, v_f, 0.0, v_r))
    return starts


@pytest.mark.parametrize("params, sup_fields, dt", [
    (PAPER, {}, 0.05),
    (LONG, {}, 0.05),
    (PAPER, {}, 0.03),
    (PAPER, {"switchback_margin": 0.0}, 0.05),
    (PAPER, {"sv_command_bounds": (-2.0, 1.0)}, 0.05),
], ids=["default", "length4.5", "dt0.03", "switchback_margin_0", "command_bounds"])
def test_lockstep_finishes_every_campaign_episode(params, sup_fields, dt):
    """The campaign comparison would pass if every row went to the scalar
    path; on campaign starts the engine must finish them all itself."""
    starts = campaign_starts(params, CampaignConfig(seed=7, n_trials=2000))
    fallback, _, _ = supervised_lockstep(params, SupervisorConfig(**sup_fields),
                                         np.array(starts), dt, 60.0)
    assert not fallback.any()


def random_case(rng, i):
    """A seeded valid (params, supervisor config, dt).  The first cases
    pin the shapes the draws must cover: vehicle_length 4.5, a_max 0, a dt
    that does not divide rho, and an AC command below -a_brake_min, so the
    window command differs from it."""
    while True:
        a_brake_min = rng.uniform(2.0, 6.0)
        params = RssParams(
            rho=rng.uniform(0.1, 1.0),
            a_max=[4.5 * rng.random(), 0.0][i == 1 or rng.random() < 0.1],
            a_brake_min=a_brake_min,
            a_brake_max=a_brake_min + rng.uniform(0.5, 6.0),
            vehicle_length=4.5 if i == 0 or rng.random() < 0.3 else rng.uniform(0.0, 6.0),
        )
        dt = 0.07 if i == 2 else float(np.exp(rng.uniform(np.log(0.005), np.log(0.125))))
        bounds = None
        if i == 3 or rng.random() < 0.4:  # lo < -a_brake_min
            lo = -a_brake_min - rng.uniform(0.1, 4.0)
            hi = rng.uniform(lo, -a_brake_min) if i == 3 or rng.random() < 0.5 else \
                rng.uniform(-a_brake_min, params.a_max)
            bounds = (lo, hi)
        sup_cfg = SupervisorConfig(period=rng.uniform(0.1, 1.0) * params.rho,
                                   switchback_margin=rng.uniform(0.0, 5.0),
                                   sv_command_bounds=bounds)
        if i == 2:
            params = RssParams(0.3, params.a_max, a_brake_min, params.a_brake_max,
                               params.vehicle_length)
            sup_cfg = replace(sup_cfg, period=0.3)
        try:  # a realized period k * dt above rho: both engines refuse it
            decision_grid(params, sup_cfg, dt, 60.0)
        except RssError:
            continue
        return params, sup_cfg, dt


def test_rows_match_the_scalar_run_on_random_configs():
    """Each finished row's (engagements, compliant) equals the scalar
    run_supervised + check_compliance; equal campaign totals could hide
    errors that cancel out.  Every fourth config ends its runs early, at a
    horizon of at most 3 s (0 included) that need not be a step end."""
    rng = np.random.default_rng(14)
    compared = total = 0
    for i in range(24):
        params, sup_cfg, dt = random_case(rng, i)
        if i == 3:  # the window command differs from the AC command
            lo, hi = sup_cfg.bounds(params)
            assert hi < -params.a_brake_min
        t_end = [60.0, 60.0, 60.0, 0.0 if i == 7 else rng.uniform(0.0, 3.0)][i % 4]
        starts = []
        for v_r, v_f, m in rng.uniform([0.0, 0.0, 0.0], [30.0, 30.0, 30.0], (20, 3)).tolist():
            gap = safe_distance(params, v_r, v_f) + params.vehicle_length + m + 1e-3
            starts.append(ScenarioState(gap, v_f, 0.0, v_r))
        got, want = lockstep_or_scalar(params, starts, sup_cfg, dt, t_end)
        assert got == want, (params, sup_cfg, dt, t_end)
        compared, total = compared + len(got), total + len(starts)
    assert compared >= 0.95 * total


# ---------------------------------------------------------------------------
# the folded rounds at their edges: window commands that brake or hold, a
# window clock off the step grid, a window ending between decisions, and a
# release from a halt

def scalar_traces(params, starts, sup_cfg, dt, t_end=60.0):
    return [run_supervised(params, sup_cfg, s, adversarial_ac(params), worst_case_pov(params),
                           dt=dt, t_end=t_end) for s in starts]


def tight_starts(params, seed, count=40):
    """Seeded starts at most 3 m above the threshold, so that most
    episodes engage."""
    rng = np.random.default_rng(seed)
    starts = []
    for v_r, v_f, m in rng.uniform([0.0, 0.0, 0.0], [30.0, 40.0, 3.0], (count, 3)).tolist():
        gap = safe_distance(params, v_r, v_f) + params.vehicle_length + m + 1e-3
        starts.append(ScenarioState(gap, v_f, 0.0, v_r))
    return starts


@pytest.mark.parametrize("params, sup_fields, dt, between", [
    (PAPER, {"sv_command_bounds": (-4.0, -1.0)}, 0.05, False),
    (PAPER, {"sv_command_bounds": (-6.0, 0.0)}, 0.05, False),
    (PAPER, {}, 0.033, False),
    (PAPER, {}, 0.07, False),
    (RssParams(0.25, 2.0, 4.0, 8.0), {}, 0.05, True),
    (RssParams(0.25, 2.0, 4.0, 8.0), {"period": 0.15}, 0.05, True),
    (LONG, {}, 0.05, False),
    (LONG, {"sv_command_bounds": (-4.0, -2.0)}, 0.033, False),
], ids=["window_brakes", "window_holds", "dt0.033", "dt0.07", "window_ends_between_decisions",
        "window_ends_off_period", "length4.5", "length4.5_braking_dt0.033"])
def test_rows_match_the_scalar_run_at_the_fold_edges(params, sup_fields, dt, between):
    sup_cfg = SupervisorConfig(**sup_fields)
    if between:  # the window's rho / dt steps are no multiple of the decision steps
        k, _, _ = decision_grid(params, sup_cfg, dt, 60.0)
        assert round(params.rho / dt) % k != 0
    starts = tight_starts(params, int(dt * 1000) + len(sup_fields))
    got, want = lockstep_or_scalar(params, starts, sup_cfg, dt)
    assert got == want and len(got) == len(starts)
    assert sum(eng for eng, _ in want) > 0  # the episodes reach the response


def test_release_from_a_halt_matches_the_scalar_run():
    # a decision in the halted phase whose margin clears switchback_margin
    # returns to AC; here the POV has halted too, so the run settles there
    from rsskit.core import AC, BC

    params, sup_cfg = RssParams(1.0, 0.5, 4.0, 4.1), SupervisorConfig(switchback_margin=0.0)
    starts = tight_starts(params, 5, 60)
    got, want = lockstep_or_scalar(params, starts, sup_cfg, 0.05)
    assert got == want and len(got) == len(starts)
    releases = 0
    for trace in scalar_traces(params, starts, sup_cfg, 0.05):
        s = trace.samples
        releases += sum(a.mode == BC and b.mode == AC and b.state.v_r <= 0.0 for a, b in zip(s, s[1:]))
    assert releases > 0
