"""The batch gap kernel against the scalar one, bit for bit.

rsskit.batch.build_profiles and analyze_gaps must give, row by row, the
segments, verdict, collision time and min gap that dynamics.build_profile
and analyze_gap give, compared with ==, and constant_runs the states of
chained advance_vehicle calls.  Each family below has at least
10,000 rows from a fixed seed, half of them with vehicle_length 0 and
half with 4.5.  verify_safety_theorem, which runs on the batch kernel,
must give the outcome, or the error, of a test-local copy of its former
scalar form, and falsify_below_threshold those of a copy of its former
draws.  Both draw through verify._uniform, whose premise is tested here.
"""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsskit.batch import analyze_gaps, build_profiles, constant_runs
from rsskit.core import RssParams, ScenarioState
from rsskit.dynamics import (
    COLLISION_EPS,
    advance_vehicle,
    analyze_gap,
    build_profile,
    classify_worst_case,
    worst_case_gap_analysis,
)
from rsskit.errors import ConfigError, DomainError, RssError
from rsskit.rule import safe_distance
from rsskit import verify
from rsskit.verify import (
    CASE_COVERAGE_PAIRS,
    CHUNK,
    GRID_MARGINS,
    GRID_SPEEDS,
    CampaignConfig,
    CampaignOutcome,
    _state_key,
    falsify_below_threshold,
    verify_safety_theorem,
)

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)
ROWS = 10_000
LENGTHS = (0.0, 4.5)


def padded(schedules):
    """(starts, accels) arrays of schedules, padded with +inf starts."""
    width = max(len(s) for s in schedules)
    starts = np.full((len(schedules), width), np.inf)
    accels = np.zeros((len(schedules), width))
    for i, sched in enumerate(schedules):
        for j, (t, a) in enumerate(sched):
            starts[i, j], accels[i, j] = t, a
    return starts, accels


def segments(prof, i):
    """Row i of a build_profiles result as build_profile's list."""
    return [tuple(seg) for seg in prof[:, i, :].T.tolist() if seg[0] != math.inf]


def check_rows(rows, length):
    """rows of (x_r, v_r, sched_r, x_f, v_f, sched_f, t_end): batch == scalar.
    Returns the scalar collision times, None where none."""
    x_r, v_r, sched_r, x_f, v_f, sched_f, t_end = zip(*rows)
    prof_r = build_profiles(np.array(x_r), np.array(v_r), *padded(sched_r), np.array(t_end))
    prof_f = build_profiles(np.array(x_f), np.array(v_f), *padded(sched_f), np.array(t_end))
    col_t, min_gap = analyze_gaps(prof_r, prof_f, length)
    col_t, min_gap = col_t.tolist(), min_gap.tolist()
    ref_times = []
    for i, row in enumerate(rows):
        segs_r = build_profile(row[0], row[1], row[2], row[6])
        segs_f = build_profile(row[3], row[4], row[5], row[6])
        assert segments(prof_r, i) == segs_r, row
        assert segments(prof_f, i) == segs_f, row
        ref_t, _, ref_gap, _ = analyze_gap(segs_r, segs_f, length)
        assert math.isnan(col_t[i]) == (ref_t is None), row
        assert ref_t is None or col_t[i] == ref_t, row
        assert min_gap[i] == ref_gap, row
        ref_times.append(ref_t)
    return ref_times


def check_family(make_row, seed, rows=ROWS):
    """Draw rows from make_row(rng, length), check each half and return
    (rows, scalar collision times)."""
    rng = np.random.default_rng(seed)
    drawn, times = [], []
    for length in LENGTHS:
        half = [make_row(rng, length) for _ in range(rows // 2)]
        drawn += half
        times += check_rows(half, length)
    return drawn, times


def collisions(family):
    return sum(t is not None for t in family[1])


def sv_halt(params, v_r):
    v_peak = v_r + params.a_max * params.rho
    return params.rho + v_peak / params.a_brake_min if v_peak > 0.0 else 0.0


def worst_row(params, v_r, v_f, gap):
    return (0.0, v_r, [(0.0, params.a_max), (params.rho, -params.a_brake_min)],
            gap, v_f, [(0.0, -params.a_brake_max)], sv_halt(params, v_r))


def random_schedule(rng, n, span, lo, hi):
    cuts = np.sort(rng.uniform(0.0, span, size=n - 1)).tolist()
    accels = rng.uniform(lo, hi, size=n).tolist()
    return list(zip([0.0] + cuts, accels))


@pytest.mark.parametrize("segs", [(1, 1), (3, 8), (10, 20)])
def test_randomized_schedules(segs):
    # the campaign's randomized trials, with gaps from below the threshold
    # up, so that some rows collide
    def make_row(rng, length):
        v_r, v_f = rng.uniform(0.0, 40.0, size=2).tolist()
        gap = safe_distance(PAPER, v_r, v_f) + length + float(rng.uniform(-30.0, 50.0))
        horizon = sv_halt(PAPER, v_r) + 1.0
        sched_f = random_schedule(rng, int(rng.integers(segs[0], segs[1] + 1)), horizon,
                                  -PAPER.a_brake_max, 2.0)
        sched_r = random_schedule(rng, int(rng.integers(1, 4)), PAPER.rho,
                                  -PAPER.a_brake_min, PAPER.a_max)
        sched_r.append((PAPER.rho, -PAPER.a_brake_min))
        return 0.0, v_r, sched_r, gap, v_f, sched_f, horizon

    assert 0 < collisions(check_family(make_row, seed=sum(segs))) < ROWS


def test_worst_case_schedules():
    def make_row(rng, length):
        rho, a_max, a_min, extra = rng.uniform([0.05, 0.0, 0.5, 0.1], [2.0, 6.0, 8.0, 6.0]).tolist()
        params = RssParams(rho, a_max, a_min, a_min + extra, length)
        v_r, v_f = rng.uniform(0.0, 50.0, size=2).tolist()
        gap = safe_distance(params, v_r, v_f) + length + float(rng.uniform(-20.0, 20.0))
        return worst_row(params, v_r, v_f, gap)

    assert 0 < collisions(check_family(make_row, seed=11)) < ROWS


def test_sv_that_never_moves_gives_a_single_breakpoint():
    # a_max = 0 and v_r = 0: t_sv_halt = 0, one (0, 0, x0, v0, 0) segment each
    params = RssParams(0.3, 0.0, 4.0, 8.0)

    def make_row(rng, length):
        gap = length + float(rng.uniform(-1.0, 1.0))
        return worst_row(params, 0.0, float(rng.uniform(0.0, 40.0)), gap)

    assert 0 < collisions(check_family(make_row, seed=12)) < ROWS


def test_margins_at_the_collision_tolerance():
    margins = (0.0, COLLISION_EPS,
               math.nextafter(COLLISION_EPS, 0.0), math.nextafter(COLLISION_EPS, 1.0))

    def make_row(rng, length):
        params = RssParams(0.3, 2.0, 4.0, 8.0, length)
        v_r, v_f = rng.uniform(0.0, 40.0, size=2).tolist()
        margin = margins[int(rng.integers(0, 4))]
        return worst_row(params, v_r, v_f, safe_distance(params, v_r, v_f) + length + margin)

    assert 0 < collisions(check_family(make_row, seed=13)) < ROWS


def test_stops_on_piece_boundaries():
    # dyadic speeds, times and accelerations: each braking piece ends
    # exactly where v + a * span is 0, and the next piece holds the
    # vehicle or pulls away at 1 m/s^2
    def schedule(rng, v):
        t, sched = 0.0, []
        for _ in range(int(rng.integers(1, 4))):
            a = -float(2 ** int(rng.integers(0, 3)))
            sched.append((t, a))
            t += v / -a
            a_next = (-2.0, 0.0, 1.0)[int(rng.integers(0, 3))]
            sched.append((t, a_next))
            span = 0.25 * int(rng.integers(1, 8))
            t += span
            v = span if a_next > 0.0 else 0.0
        return sched, t

    def make_row(rng, length):
        v_r, v_f = (0.25 * int(k) for k in rng.integers(0, 80, size=2))
        sched_r, end_r = schedule(rng, v_r)
        sched_f, end_f = schedule(rng, v_f)
        gap = length + 0.25 * int(rng.integers(0, 200))
        # t_end past both schedules, or on a piece start, which ends the profile
        ends = [max(end_r, end_f) + 0.5] + [t for t, _ in sched_r[1:] + sched_f[1:] if t > 0.0]
        return 0.0, v_r, sched_r, gap, v_f, sched_f, ends[int(rng.integers(0, len(ends)))]

    family = check_family(make_row, seed=14)
    assert 0 < collisions(family) < ROWS
    # the pieces starting at t_end, which build_profile leaves out
    assert sum(any(t == row[6] for t, _ in row[2] + row[5]) for row in family[0]) > ROWS // 4


def test_zero_relative_acceleration():
    # both vehicles on one schedule: every interval before a stop is
    # linear.  Every other row runs both at constant speed and puts the
    # linear root at t_end, within the interval, to the last bit.
    def make_row(rng, length):
        if rng.integers(0, 2):
            w, t_end = (0.25 * int(k) for k in rng.integers(1, 80, size=2))
            v_f = float(rng.uniform(0.0, 20.0))
            gap = length + (COLLISION_EPS + w * t_end)
            return 0.0, v_f + w, [(0.0, 0.0)], gap, v_f, [(0.0, 0.0)], t_end
        sched = random_schedule(rng, int(rng.integers(1, 6)), 10.0, -8.0, 2.0)
        v_r, v_f = rng.uniform(0.0, 40.0, size=2).tolist()
        gap = length + float(rng.uniform(0.0, 60.0))
        return 0.0, v_r, sched, gap, v_f, sched, 10.0

    rows, times = check_family(make_row, seed=15)
    assert 0 < collisions((rows, times)) < ROWS
    assert sum(t == row[6] for row, t in zip(rows, times)) > ROWS // 10


def test_quadratic_root_at_the_horizon():
    # the SV brakes at 2 m/s^2 behind a POV at constant speed, so the
    # gap is EPS + (s - T)(s - R) with dyadic T < R: its earlier root is
    # T = t_end, and the square root of the discriminant, R - T, is exact
    def make_row(rng, length):
        t_end, extra = (0.25 * int(k) for k in rng.integers(1, 80, size=2))
        v_f = 0.25 * int(rng.integers(0, 80))
        gap = length + (COLLISION_EPS + t_end * (t_end + extra))
        v_r = v_f + t_end + (t_end + extra)
        return 0.0, v_r, [(0.0, -2.0)], gap, v_f, [(0.0, 0.0)], t_end

    rows, times = check_family(make_row, seed=16)
    assert sum(t == row[6] for row, t in zip(rows, times)) > ROWS // 10


# ---------------------------------------------------------------------------
# constant-command runs

def chained(x, v, a, dt, n):
    """The start and the states after each of n advance_vehicle calls."""
    xs, vs = [x], [v]
    for _ in range(n):
        x, v, _ = advance_vehicle(x, v, a, dt)
        xs.append(x)
        vs.append(v)
    return xs, vs


def check_runs(x0, v0, a, dt, n):
    """constant_runs == chained, row by row; a is one command per row."""
    xs, vs = constant_runs(np.array(x0), np.array(v0), np.array(a), dt, n)
    assert xs.shape == vs.shape == (len(x0), n + 1)
    for i, row in enumerate(zip(x0, v0, a)):
        assert (xs[i].tolist(), vs[i].tolist()) == chained(*row, dt, n), row


speeds = st.one_of(st.just(0.0), st.floats(0.0, 60.0))
commands = st.one_of(st.just(0.0), st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e4), speeds, commands), min_size=1, max_size=4),
       st.floats(1e-3, 0.5), st.integers(0, 200))
def test_constant_runs_chain_advance_vehicle(rows, dt, n):
    check_runs(*zip(*rows), dt, n)


@pytest.mark.parametrize("v0, a, dt", [
    # v + a*dt == 0 exactly: a full step that ends at rest; in the second,
    # v / -a is not dt, so the stop formula would move x by an ulp
    (0.4, -8.0, 0.05),
    (1.673, -7.0, 0.239),
    (0.0, 0.0, 0.05),  # held from the start
    (0.0, -4.0, 0.05),
    (7.0, 0.0, 0.05),  # a == 0
    (0.1, -8.0, 0.05),  # stops inside the first step
    (0.0, 2.0, 0.05),  # pulls away from rest
])
def test_constant_runs_edges(v0, a, dt):
    assert 0.4 + -8.0 * 0.05 == 0.0 and 1.673 + -7.0 * 0.239 == 0.0
    check_runs([3.0], [v0], [a], dt, 20)


# ---------------------------------------------------------------------------
# the campaign against its former scalar form

def reference_randomized_min_gap(params, cfg, rng, start, horizon):
    n_seg = int(rng.integers(cfg.pov_segments_min, cfg.pov_segments_max + 1))
    cuts = np.sort(rng.uniform(0.0, horizon, size=n_seg - 1)) if n_seg > 1 else []
    accels = rng.uniform(-params.a_brake_max, cfg.a_fwd_max, size=n_seg)
    sched_f = [(0.0, float(accels[0]))]
    sched_f += [(float(t), float(a)) for t, a in zip(cuts, accels[1:])]

    n_win = int(rng.integers(1, 4))
    wcuts = np.sort(rng.uniform(0.0, params.rho, size=n_win - 1)) if n_win > 1 else []
    waccels = rng.uniform(-params.a_brake_min, params.a_max, size=n_win)
    sched_r = [(0.0, float(waccels[0]))]
    sched_r += [(float(t), float(a)) for t, a in zip(wcuts, waccels[1:])]
    sched_r.append((params.rho, -params.a_brake_min))

    segs_r = build_profile(start.x_r, start.v_r, sched_r, horizon)
    segs_f = build_profile(start.x_f, start.v_f, sched_f, horizon)
    col_t, col_gap, min_gap, _ = analyze_gap(segs_r, segs_f, params.vehicle_length)
    return col_t, min_gap


def reference_verify_safety_theorem(params, cfg, min_gaps):
    """The former verify_safety_theorem; appends every min gap to min_gaps."""
    rng = np.random.default_rng(cfg.seed)
    outcome = CampaignOutcome("safety_theorem")
    outcome.stats["randomized_trials"] = 0
    outcome.stats["randomized_min_gap_below_worst"] = 0

    def worst_trial(v_r, v_f, gap, label):
        start = ScenarioState(gap, v_f, 0.0, v_r)
        col_t, _, min_gap, _, t_sv_halt, _ = worst_case_gap_analysis(params, start)
        min_gaps.append(min_gap)
        outcome.trials_run += 1
        outcome.cases_seen[classify_worst_case(params, start)] += 1
        if col_t is not None:
            outcome.counterexamples.append(
                {"v_r": v_r, "v_f": v_f, "gap": gap, "behavior": "worst_case",
                 "collision_t": col_t, "source": label}
            )
        return start, min_gap, t_sv_halt

    length = params.vehicle_length
    if cfg.include_grid:
        for v_r in GRID_SPEEDS:
            for v_f in GRID_SPEEDS:
                d = safe_distance(params, v_r, v_f)
                for m in GRID_MARGINS:
                    worst_trial(v_r, v_f, d + length + m, "grid")
        for v_r, v_f in CASE_COVERAGE_PAIRS:
            worst_trial(v_r, v_f, safe_distance(params, v_r, v_f) + length + 5.0, "grid")

    for _ in range(cfg.n_trials):
        v_r = float(rng.uniform(cfg.v_min, cfg.v_max))
        v_f = float(rng.uniform(cfg.v_min, cfg.v_max))
        margin = cfg.margin_max * (1.0 - float(rng.random()))
        gap = safe_distance(params, v_r, v_f) + length + margin
        start, worst_min_gap, t_sv_halt = worst_trial(v_r, v_f, gap, "random")

        horizon = t_sv_halt + 1.0
        col_t, rand_min_gap = reference_randomized_min_gap(params, cfg, rng, start, horizon)
        min_gaps.append(rand_min_gap)
        outcome.stats["randomized_trials"] += 1
        if col_t is not None:
            outcome.counterexamples.append(
                {"v_r": v_r, "v_f": v_f, "gap": gap, "behavior": "randomized",
                 "collision_t": col_t, "source": "random"}
            )
        if rand_min_gap < worst_min_gap - 1e-9:
            outcome.stats["randomized_min_gap_below_worst"] += 1

    outcome.counterexamples.sort(key=_state_key)
    return outcome


WIDE_POV = {"pov_segments_min": 10, "pov_segments_max": 20}
# CHUNK random trials per kernel call with up to 8 POV segments, and
# max(16, CHUNK * 8 // 20) with up to 20
WIDE_CHUNK = max(16, CHUNK * 8 // 20)

CAMPAIGNS = [
    # (seed, vehicle_length, config fields)
    (0, 0.0, {"n_trials": 3000}),
    (1, 4.5, {"n_trials": 0}),
    (2, 0.0, {"n_trials": 0, "include_grid": False}),
    (3, 4.5, {"n_trials": 1, "include_grid": False}),
    (4, 0.0, {"n_trials": CHUNK - 1, "pov_segments_min": 1, "pov_segments_max": 1}),
    (0, 4.5, {"n_trials": CHUNK, "include_grid": False, "a_fwd_max": -8.0}),
    (1, 0.0, {"n_trials": CHUNK + 1, "include_grid": False}),
    (2, 4.5, {"n_trials": WIDE_CHUNK + 1, **WIDE_POV}),
    (3, 0.0, {"n_trials": WIDE_CHUNK - 1, "include_grid": False, **WIDE_POV}),
    (4, 4.5, {"n_trials": 2 * WIDE_CHUNK, "a_fwd_max": -8.0, **WIDE_POV}),
    # margins down to 1e-12 put starts within COLLISION_EPS of the
    # threshold, so the worst case reports counterexamples here
    (3, 0.0, {"n_trials": 300, "margin_max": 1e-12}),
]
# a random trial whose safe distance is not defined: both forms raise
# rule.travel_terms' DomainError for the first such trial in order
UNDEFINED = [
    (0, 0.0, {"n_trials": 100, "v_min": -1.0}),
    (1, 4.5, {"n_trials": 100, "v_min": 1e154, "v_max": 1e155}),  # terms overflow
    # no trial of the first chunk is undefined, two of the second are
    (9, 0.0, {"n_trials": 2 * CHUNK, "v_min": -0.04, "include_grid": False}),
]
CAMPAIGNS += UNDEFINED


def outcome_or_error(run, *args):
    """The outcome dict of run(*args), or the type and message of its error."""
    try:
        return run(*args).to_dict()
    except RssError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed,length,fields", CAMPAIGNS)
def test_campaign_matches_the_scalar_form(seed, length, fields, monkeypatch):
    # the outcome holds no min gap, so the kernel's are compared as well
    batch_gaps = []

    def recording(*args):
        col_t, min_gap = analyze_gaps(*args)
        batch_gaps.extend(min_gap.tolist())
        return col_t, min_gap

    monkeypatch.setattr(verify, "analyze_gaps", recording)
    params = RssParams(0.3, 2.0, 4.0, 8.0, length)
    cfg = CampaignConfig(seed=seed, **fields)
    got = outcome_or_error(verify_safety_theorem, params, cfg)
    ref_gaps = []
    want = outcome_or_error(reference_verify_safety_theorem, params, cfg, ref_gaps)
    assert got == want
    if (seed, length, fields) in UNDEFINED:
        assert want[0] is DomainError
        if cfg.n_trials > CHUNK:
            verify_safety_theorem(params, replace(cfg, n_trials=CHUNK))
        return
    assert json.dumps(got) == json.dumps(want)
    assert sorted(batch_gaps) == sorted(ref_gaps)
    if fields.get("margin_max") == 1e-12:
        assert got["n_counterexamples"] > 0


def reference_falsify_below_threshold(params, cfg):
    """falsify_below_threshold with its former draws: two uniform calls."""
    rng = np.random.default_rng(cfg.seed)
    outcome = CampaignOutcome("falsification")

    def trial(v_r, v_f, gap, label):
        start = ScenarioState(gap, v_f, 0.0, v_r)
        col_t, _, min_gap, _, _, _ = worst_case_gap_analysis(params, start)
        outcome.trials_run += 1
        if col_t is None:
            outcome.counterexamples.append(
                {"v_r": v_r, "v_f": v_f, "gap": gap, "min_gap": min_gap, "source": label}
            )

    if cfg.include_grid:
        for v_r in GRID_SPEEDS:
            for v_f in GRID_SPEEDS:
                d = safe_distance(params, v_r, v_f)
                if d > 0.0:
                    trial(v_r, v_f, d + params.vehicle_length, "grid_boundary")

    attempts = done = 0
    while done < cfg.n_trials:
        attempts += 1
        if attempts > 100 * max(1, cfg.n_trials):
            raise ConfigError(
                "sampled velocity ranges never produce a positive safe distance; "
                "nothing to falsify"
            )
        v_r = float(rng.uniform(cfg.v_min, cfg.v_max))
        v_f = float(rng.uniform(cfg.v_min, cfg.v_max))
        d = safe_distance(params, v_r, v_f)
        if d <= 0.0:
            continue
        done += 1
        gap = d if done % 10 == 0 else d * (1.0 - float(rng.random()))
        if gap <= 0.0:
            gap = d
        trial(v_r, v_f, gap + params.vehicle_length, "random")

    outcome.counterexamples.sort(key=lambda ce: (ce["v_r"], ce["v_f"], ce["gap"]))
    return outcome


FALSIFICATIONS = [
    # (params, config fields)
    (PAPER, {"n_trials": 300}),
    (RssParams(0.3, 2.0, 4.0, 8.0, 4.5), {"n_trials": 300}),
    (PAPER, {"n_trials": 500, "include_grid": False, "seed": 3}),
    (RssParams(0.8, 0.5, 3.0, 9.0, 4.5), {"n_trials": 200, "include_grid": False, "v_max": 5.0}),
    # at a_max 0 some pairs have d_min 0 and are drawn again
    (RssParams(0.3, 0.0, 4.0, 8.0), {"n_trials": 300, "seed": 7}),
    # every pair has d_min 0: the 100-attempt ConfigError
    (RssParams(0.3, 0.0, 4.0, 8.0), {"n_trials": 5, "v_min": 0.0, "v_max": 0.0}),
    (PAPER, {"n_trials": 100, "v_min": -1.0, "include_grid": False}),  # DomainError
]


@pytest.mark.parametrize("params,fields", FALSIFICATIONS)
def test_falsification_matches_its_former_draws(params, fields):
    cfg = CampaignConfig(**fields)
    got = outcome_or_error(falsify_below_threshold, params, cfg)
    want = outcome_or_error(reference_falsify_below_threshold, params, cfg)
    assert got == want
    assert repr(got) == repr(want)  # -0.0 == 0.0, but their reprs differ


# the campaigns' draw ranges: speeds, POV cut times up to t_sv_halt + 1,
# window cut times up to rho, the acceleration ranges; then extreme widths
DRAW_RANGES = [
    (0.0, 40.0), (-1.0, 40.0), (5.0, 5.0), (0.0, sv_halt(PAPER, 40.0) + 1.0), (0.0, 0.3),
    (-8.0, 2.0), (-8.0, -8.0), (-4.0, 2.0), (-9.0, 0.5), (1e154, 1e155), (0.0, 1.7e308),
    (-1.7e308, 0.0), (-8.9e307, 8.9e307), (5e-324, 1e-323), (-1e-300, 1e300),
]


def test_uniform_is_affine_in_random():
    # Generator.uniform(a, b) is a + (b - a) * random(), and one random(j + k)
    # call draws what random(j) and random(k) draw, so each run of float
    # draws is one random() call in the campaigns
    for seed in range(200):
        for a, b in DRAW_RANGES:
            r, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [float(r.uniform(a, b))] + r.uniform(a, b, size=6).tolist()
            u = r2.random(7)
            assert verify._uniform(a, b, u).tolist() == want, (seed, a, b)
            assert [verify._uniform(a, b, x) for x in u.tolist()] == want, (seed, a, b)
        r, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        horizons = r.uniform(0.0, 12.0, 5)
        want = [float(r.uniform(0.0, h)) for h in horizons]
        r2.random(5)
        assert verify._uniform(0.0, horizons, r2.random(5)).tolist() == want
        j, k = (int(n) for n in r.integers(0, 20, 2))
        r, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        parts = [float(r.random())] + r.random(j).tolist() + r.random(k).tolist()
        assert r2.random(1 + j + k).tolist() == parts


WEAK = RssParams(0.3, 2.0, 0.5, 1.0)


@pytest.mark.parametrize("v_r, v_f, gap", [
    # the exact boundary gap (7.8e307 m) touches at the SV halt, but the
    # POV's halt position overflows: no collision, min gap 3.9e307 m
    (1.25e154, 1.25e154, safe_distance(WEAK, 1.25e154, 1.25e154)),
    # the free space at the SV halt is 7e307 m, but the gap extrapolated
    # to it overflows: min gap 1.7e308 m
    (1e154, 0.0, 1.7e308),
], ids=["breakpoint", "interval_end"])
def test_a_gap_that_overflows_raises_in_both_kernels(v_r, v_f, gap):
    with pytest.raises(DomainError, match="not finite") as scalar:
        worst_case_gap_analysis(WEAK, ScenarioState(gap, v_f, 0.0, v_r))
    # the batch raises the scalar error for the first such row
    with pytest.raises(DomainError) as batch:
        check_rows([worst_row(WEAK, 10.0, 10.0, 100.0), worst_row(WEAK, v_r, v_f, gap)], 0.0)
    assert str(batch.value) == str(scalar.value)
