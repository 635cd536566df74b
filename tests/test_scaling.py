"""Power-of-two unit rescaling of the safe-distance rule and the closed-form
gap kernels, in both engines.

Multiplying by a power of two is exact in binary floating point, barring
overflow and underflow, and +, -, *, / of exactly scaled operands round
the exactly scaled result.  So, with no oracle:

- lengths by c = 2**k: speeds, accelerations, positions and
  vehicle_length scale by c, and d_min and the margin must scale by
  exactly c;
- times by s = 2**k: rho scales by s, speeds by 1/s and accelerations by
  1/s**2, and d_min and the margin (positions unchanged) must not move.

Both hold only if every square is correctly rounded: squared by libm pow,
d_min missed by an ulp on a few draws.  The draws keep every scaled value
normal and finite.

The gap kernels compare gaps with the absolute COLLISION_EPS (1e-9 m), so
they are checked only on starts whose free space stays at least 0.5 m:
there a collision time is None and the minimum gap, its time and the halt
times must scale exactly.  The audit finds a collision by COLLISION_EPS
and GAP_RESOLUTION too, so it is checked under length rescaling only on
recorded trajectories whose free space is at every sample either at most
0 or at least 0.05 m, with its accel_tol scaled with the lengths.  It is
checked under time rescaling on the same kind of runs at dt 0.01 and
0.05, with accel_tol scaled too, where only the absolute 1e-12 s slack of
its violation merge could move a verdict; merge_slack_cannot_decide rules
that out for each run.  The supervised engines are checked under length
rescaling, with the switchback_margin scaled too; see
test_the_supervised_engines_scale_exactly for what they are compared on.
"""
import random
from bisect import bisect_left, bisect_right

import numpy as np

from rsskit.audit import _default_time_tol, audit
from rsskit.batch import (
    analyze_gaps, build_profiles, classify_worst_cases, margins, safe_distances, supervised_lockstep,
    unsupervised_runs,
)
from rsskit.core import RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.dynamics import worst_case_gap_analysis, worst_case_pov
from rsskit.rule import margin, safe_distance
from rsskit.supervisor import SupervisorConfig, adversarial_ac, benign_ac, run_supervised

KS = (10, -10, -40)
PARAMS, PAIRS = 2_000, 10  # 20,000 parameter sets and speed pairs


def draws():
    """Seeded (params, v_r, v_f, x_r, x_f), the last four arrays of PAIRS."""
    rng = np.random.default_rng(2024)
    for _ in range(PARAMS):
        rho, a_max, a_min, extra = rng.uniform([0.01, 0.0, 0.1, 0.01], [3.0, 10.0, 10.0, 10.0])
        length = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 10.0)
        params = RssParams(rho, a_max, a_min, a_min + extra, length)
        v = np.where(rng.random((2, PAIRS)) < 0.5, rng.uniform(0.0, 60.0, (2, PAIRS)),
                     10.0 ** rng.uniform(-3.0, 3.0, (2, PAIRS)))
        x_r = rng.uniform(-100.0, 100.0, PAIRS)
        yield params, v[0], v[1], x_r, x_r + rng.uniform(0.0, 200.0, PAIRS)


def outputs(params, v_r, v_f, x_r, x_f):
    """d_min and the margin of each pair, from the scalar and the array rule."""
    states = [ScenarioState(*s) for s in zip(x_f.tolist(), v_f.tolist(), x_r.tolist(), v_r.tolist())]
    d_min, ok = safe_distances(params, v_r, v_f)
    (m,), (m_ok,) = margins(params, np.array([x_r, x_f]), np.array([v_r, v_f]))
    assert ok.all() and m_ok.all()
    return {
        "rule.safe_distance": [safe_distance(params, s.v_r, s.v_f) for s in states],
        "rule.margin": [margin(params, s) for s in states],
        "batch.safe_distances": d_min.tolist(),
        "batch.margins": m.tolist(),
    }


def lengths_by(params, v_r, v_f, x_r, x_f, c):
    scaled = RssParams(params.rho, params.a_max * c, params.a_brake_min * c,
                       params.a_brake_max * c, params.vehicle_length * c)
    return scaled, v_r * c, v_f * c, x_r * c, x_f * c


def times_by(params, v_r, v_f, x_r, x_f, s):
    scaled = RssParams(params.rho * s, params.a_max / (s * s), params.a_brake_min / (s * s),
                       params.a_brake_max / (s * s), params.vehicle_length)
    return scaled, v_r / s, v_f / s, x_r, x_f


def test_d_min_and_the_margin_scale_exactly():
    misses, checks = [], 0
    for case in draws():
        base = outputs(*case)
        for k in KS:
            c = 2.0 ** k
            for rescaling, got, want in (
                    ("lengths", outputs(*lengths_by(*case, c)), {n: [c * y for y in ys] for n, ys in base.items()}),
                    ("times", outputs(*times_by(*case, c)), base)):
                for name in base:
                    checks += len(want[name])
                    misses += [(rescaling, k, name, case[0], j) for j, (a, b) in
                               enumerate(zip(got[name], want[name])) if a != b]
    assert checks == len(base) * 2 * len(KS) * PARAMS * PAIRS
    assert misses == [], f"{len(misses)} of {checks} checks missed, first {misses[:3]}"


# ---------------------------------------------------------------------------
# the closed-form gap kernels

KERNEL_KS = (3, -3, 10, -10)
KERNEL_STARTS = 500  # a vehicle_length
# (length, time) exponents of what the kernels read and give
T, X, V, A = (0, 1), (1, 0), (1, -1), (1, -2)
WORST_CASE = ("collision_t", T), ("gap_at_collision", X), ("min_gap", X), ("min_gap_t", T), \
    ("t_sv_halt", T), ("t_pov_halt", T)
PROFILE = T, T, X, V, A  # the fields t0, t1, x0, v0, a


def kernel_inputs(length):
    """Seeded paper-parameter starts, 0.5-50 m of free space above d_min,
    and randomized schedules that the worst case dominates: POV pieces in
    [-a_brake_max, 2] from cut times up to the SV halt plus 1 s, SV pieces
    in [-a_brake_min, a_max] up to rho, then -a_brake_min.  As
    {name: (dimension, array)}."""
    rng = np.random.default_rng(27)
    params, n = RssParams(0.3, 2.0, 4.0, 8.0, length), KERNEL_STARTS
    v_r, v_f = rng.uniform(0.0, 40.0, (2, n))
    x_r = rng.uniform(-100.0, 100.0, n)
    x_f = x_r + safe_distances(params, v_r, v_f)[0] + length + rng.uniform(0.5, 50.0, n)
    horizon = classify_worst_cases(params, v_r, v_f)[1] + 1.0
    cuts = np.sort(rng.uniform(0.0, 1.0, (n, 3)), axis=1) * horizon[:, None]
    return params, {
        "x_r": (X, x_r), "v_r": (V, v_r), "x_f": (X, x_f), "v_f": (V, v_f), "horizon": (T, horizon),
        "starts_f": (T, np.concatenate((np.zeros((n, 1)), cuts), axis=1)),
        "accels_f": (A, rng.uniform(-8.0, 2.0, (n, 4))),
        "starts_r": (T, np.stack((np.zeros(n), rng.uniform(0.0, 0.3, n), np.full(n, 0.3)), axis=1)),
        "accels_r": (A, np.concatenate((rng.uniform(-4.0, 2.0, (n, 2)), np.full((n, 1), -4.0)), axis=1)),
    }


def rescaled(params, inputs, unit):
    """params and inputs with each value multiplied by unit(dimension)."""
    scaled = RssParams(params.rho * unit(T), params.a_max * unit(A), params.a_brake_min * unit(A),
                       params.a_brake_max * unit(A), params.vehicle_length * unit(X))
    return scaled, {name: (dim, z * unit(dim)) for name, (dim, z) in inputs.items()}


def kernel_outputs(params, inputs):
    """{name: (dimension, float array, NaN for None)} of worst_case_gap_analysis
    on each start, and of build_profiles and analyze_gaps under the worst
    case and under the randomized schedules."""
    z = {name: value for name, (_, value) in inputs.items()}
    starts = zip(z["x_f"].tolist(), z["v_f"].tolist(), z["x_r"].tolist(), z["v_r"].tolist())
    scalar = np.array([worst_case_gap_analysis(params, ScenarioState(*s)) for s in starts], float)
    out = {f"worst_case_gap_analysis.{name}": (dim, col) for (name, dim), col in zip(WORST_CASE, scalar.T)}
    t_s = classify_worst_cases(params, z["v_r"], z["v_f"])[1]
    out["classify_worst_cases.t_s"] = T, t_s
    schedules = {
        "worst_case": ([[0.0, params.rho]], [[params.a_max, -params.a_brake_min]],
                       np.zeros((1, 1)), [[-params.a_brake_max]], t_s),
        "randomized": (z["starts_r"], z["accels_r"], z["starts_f"], z["accels_f"], z["horizon"]),
    }
    for kind, (starts_r, accels_r, starts_f, accels_f, t_end) in schedules.items():
        prof_r = build_profiles(z["x_r"], z["v_r"], np.array(starts_r), np.array(accels_r), t_end)
        prof_f = build_profiles(z["x_f"], z["v_f"], np.array(starts_f), np.array(accels_f), t_end)
        for vehicle, prof in (("r", prof_r), ("f", prof_f)):
            for field, dim, values in zip(("t0", "t1", "x0", "v0", "a"), PROFILE, prof):
                out[f"{kind}.prof_{vehicle}.{field}"] = dim, values
        col_t, min_gap = analyze_gaps(prof_r, prof_f, params.vehicle_length)
        out[f"{kind}.collision_t"], out[f"{kind}.min_gap"] = (T, col_t), (X, min_gap)
    return out


def test_the_gap_kernels_scale_exactly():
    misses, checks = [], 0
    for length in (0.0, 4.5):
        params, inputs = kernel_inputs(length)
        base = kernel_outputs(params, inputs)
        # no collision, and at least 0.5 m of free space: no COLLISION_EPS comparison is near
        for kernel in ("worst_case_gap_analysis", "worst_case", "randomized"):
            assert np.isnan(base[f"{kernel}.collision_t"][1]).all()
            assert (base[f"{kernel}.min_gap"][1] - length >= 0.5).all()
        for k in KERNEL_KS:
            for rescaling, unit in (("lengths", lambda dim: (2.0 ** k) ** dim[0]),
                                    ("times", lambda dim: (2.0 ** k) ** dim[1])):
                got = kernel_outputs(*rescaled(params, inputs, unit))
                for name, (dim, values) in base.items():
                    checks += values.size
                    if not np.array_equal(got[name][1], values * unit(dim), equal_nan=True):
                        misses.append((length, k, rescaling, name))
    assert checks > 16_000
    assert misses == [], f"{len(misses)} outputs missed, first {misses[:3]}"


# ---------------------------------------------------------------------------
# the audit

AUDIT_KS = (3, -3, 10, -10)
TIME_KS = (3, -3, 6, -6)


def recorded(length, dt=0.05):
    """Seeded paper-parameter trajectories at step dt: supervised with the
    benign and the adversarial AC, and unsupervised (colliding) with the
    adversarial AC, from 1-20 m of free space above d_min.  A collision
    run ends where the free space reaches COLLISION_EPS; its last sample
    is moved 0.5 m into overlap, clear of that constant."""
    rng, params = random.Random(15), RssParams(0.3, 2.0, 4.0, 8.0, length)
    out = []
    for ac, supervised in ((benign_ac, True), (adversarial_ac, True), (adversarial_ac, False)):
        for _ in range(8):
            v_r, v_f = rng.uniform(8.0, 32.0), rng.uniform(8.0, 32.0)
            gap = safe_distance(params, v_r, v_f) + length + rng.uniform(1.0, 20.0)
            trace = run_supervised(params, SupervisorConfig(), ScenarioState(gap, v_f, 0.0, v_r),
                                   ac(params), worst_case_pov(params), dt=dt, supervised=supervised)
            samples = trace.to_trajectory().samples
            if trace.collision:
                last = samples[-1]
                samples = samples[:-1] + (last._replace(state=last.state._replace(x_r=last.state.x_r + 0.5)),)
            out.append(Trajectory(samples, params))
    return out


def lengths_scaled(traj, c):
    p = traj.params
    params = RssParams(p.rho, p.a_max * c, p.a_brake_min * c, p.a_brake_max * c, p.vehicle_length * c)
    return Trajectory(tuple(TrajectorySample(t, ScenarioState(*(c * z for z in state)), c * a_r, mode)
                            for t, state, a_r, mode in traj.samples), params)


def test_the_audit_scales_exactly():
    misses, checks, verdicts = [], 0, set()
    for length in (0.0, 4.5):
        for traj in recorded(length):
            free = [x_f - x_r - length for _, (x_f, _, x_r, _), _, _ in traj.samples]
            assert all(f <= 0.0 or f >= 0.05 for f in free)
            base = audit(traj)
            verdicts.add((base.compliant, base.liability))
            for k in AUDIT_KS:
                c = 2.0 ** k
                got = audit(lengths_scaled(traj, c), accel_tol=0.2 * c)
                want = tuple((t, ok, c * m, mode) for t, ok, m, mode in base.per_sample)
                checks += 1
                if (got.per_sample, got.metric_score) != (want, c * base.metric_score) or (
                        got.compliant, got.violations, got.liability, got.principles) != (
                        base.compliant, base.violations, base.liability, base.principles):
                    misses.append((length, k, len(traj)))
    # the supervised runs comply, and the unsupervised ones collide and make the SV liable
    assert checks == 2 * 24 * len(AUDIT_KS) and verdicts == {(True, "None"), (False, "SvLiable")}
    assert misses == [], f"{len(misses)} of {checks} audits missed, first {misses[:3]}"


def times_scaled(traj, s):
    p = traj.params
    params = RssParams(p.rho * s, p.a_max / (s * s), p.a_brake_min / (s * s), p.a_brake_max / (s * s),
                       p.vehicle_length)
    return Trajectory(tuple(TrajectorySample(s * t, ScenarioState(x_f, v_f / s, x_r, v_r / s), a_r / (s * s), mode)
                            for t, (x_f, v_f, x_r, v_r), a_r, mode in traj.samples), params)


def braking_short(traj, short):
    """traj with every braking command at a_brake_min made `short` m/s**2
    weaker, or None if it has none."""
    brake = -traj.params.a_brake_min
    samples = tuple(smp._replace(a_r=brake + short) if smp.a_r == brake else smp for smp in traj.samples)
    return None if samples == traj.samples else Trajectory(samples, traj.params)


def merge_slack_cannot_decide(traj):
    """check_compliance merges two failures of one reason when their times
    differ by at most 2 * time_tol + 1e-12 s, an absolute slack that is
    1e-12 / s s in the units of the trajectory rescaled by s.  No pair of
    sample times here differs by more than 2 * time_tol + 1e-14 s and at
    most 2 * time_tol + 1e-10 s, so for s in 2**+-6 the merges cannot move."""
    ts = [t for t, _, _, _ in traj.samples]
    twice = 2 * _default_time_tol(traj)
    for i, t in enumerate(ts):
        for u in ts[bisect_left(ts, t + twice - 1e-9):bisect_right(ts, t + twice + 1e-9)]:
            if 1e-14 < u - t - twice <= 1e-10:
                return False
    return True


def test_the_audit_scales_exactly_in_time():
    """Times by s = 2**k with accel_tol by 1/s**2: margins, verdicts,
    compliance and liability must not move, and violation times and the
    median-step time_tol must scale by s.  The recorded trajectories are
    joined by copies whose braking falls 0.1 m/s**2 (inside accel_tol) and
    0.3 m/s**2 (outside it) short of a_brake_min, so that the weak-braking
    check runs past the response window."""
    misses, checks, verdicts, violations = [], 0, set(), 0
    for dt in (0.01, 0.05):
        for length in (0.0, 4.5):
            trajs = recorded(length, dt)
            trajs += [t for t in (braking_short(traj, short) for traj in trajs for short in (0.1, 0.3)) if t]
            for traj in trajs:
                assert merge_slack_cannot_decide(traj)
                base = audit(traj)
                verdicts.add((base.compliant, base.liability))
                violations += len(base.violations)
                for k in TIME_KS:
                    s = 2.0 ** k
                    got = audit(times_scaled(traj, s), accel_tol=0.2 / (s * s))
                    want = tuple((s * t, ok, m, mode) for t, ok, m, mode in base.per_sample)
                    scaled = tuple((s * v.t_start, s * v.t_end, v.reason) for v in base.violations)
                    checks += 1
                    if (got.per_sample, got.metric_score, got.compliant, got.liability, got.principles) != (
                            want, base.metric_score, base.compliant, base.liability, base.principles) or tuple(
                            (v.t_start, v.t_end, v.reason) for v in got.violations) != scaled:
                        misses.append((dt, length, k, len(traj)))
    # 16 of each 24 runs, the supervised ones, brake at a_brake_min and get two copies
    assert checks == 2 * 2 * 56 * len(TIME_KS) and violations > 0
    assert verdicts == {(True, "None"), (False, "None"), (False, "SvLiable")}
    assert misses == [], f"{len(misses)} of {checks} audits missed, first {misses[:3]}"


# ---------------------------------------------------------------------------
# the supervised engines

SUPERVISED_KS = (3, -3, 6, -6)
LOCKSTEP_KS = (3, -3, 6, -6, 10, -10)
LOCKSTEP_STARTS = 500  # a vehicle_length


def paper_by(c, length):
    """The paper parameters with vehicle_length, lengths scaled by c."""
    return RssParams(0.3, 2.0 * c, 4.0 * c, 8.0 * c, length * c)


def supervised_runs(c, length, dt, ac):
    """Seeded paper-parameter run_supervised traces, lengths scaled by c:
    the switchback_margin (1 m) too, and speeds drawn in 8-32 m/s from
    0.5-20 m of free space above d_min."""
    rng = random.Random(33)
    params = paper_by(c, length)
    cfg = SupervisorConfig(switchback_margin=c)
    traces = []
    for _ in range(5):
        v_r, v_f = rng.uniform(8.0, 32.0), rng.uniform(8.0, 32.0)
        gap = safe_distance(paper_by(1.0, length), v_r, v_f) + length + rng.uniform(0.5, 20.0)
        start = ScenarioState(c * gap, c * v_f, 0.0, c * v_r)
        traces.append(run_supervised(params, cfg, start, ac(params), worst_case_pov(params), dt=dt))
    return traces


def lockstep_starts(length):
    """Seeded campaign-like starts (x_f, v_f, x_r, v_r): speeds in 0-40 m/s,
    0-50 m of free space above d_min."""
    rng = np.random.default_rng(33)
    params = paper_by(1.0, length)
    v_r, v_f = rng.uniform(0.0, 40.0, (2, LOCKSTEP_STARTS))
    gap = safe_distances(params, v_r, v_f)[0] + length + 50.0 * (1.0 - rng.random(LOCKSTEP_STARTS))
    return np.stack((gap, v_f, np.zeros(LOCKSTEP_STARTS), v_r), axis=1)


def lockstep_outcomes(c, length, starts):
    """supervised_lockstep's (fallback, engagements, compliant) and
    unsupervised_runs' fallback flags and collision presence, lengths
    scaled by c, at the campaigns' dt 0.05 and t_end 60 s."""
    params = paper_by(c, length)
    cfg = SupervisorConfig(switchback_margin=c)
    fallback, engagements, compliant = supervised_lockstep(params, cfg, starts * c, 0.05, 60.0)
    neg_fallback, collision = unsupervised_runs(params, cfg, starts * c, 0.05, 60.0)
    return (list(fallback), list(engagements), list(compliant), neg_fallback,
            [event is not None for event in collision])


def test_the_supervised_engines_scale_exactly():
    """run_supervised's samples must scale exactly, with the same
    bc_engagements and collision presence; the lockstep engines' outcomes
    must not move.  unsupervised_runs' collision times are not compared:
    they are located where the free space reaches the absolute
    COLLISION_EPS (1e-9 m), so they move with the scale."""
    misses, engaged = [], 0
    for length in (0.0, 4.5):
        for dt in (0.01, 0.05):
            for ac in (benign_ac, adversarial_ac):
                base = supervised_runs(1.0, length, dt, ac)
                engaged += sum(trace.bc_engagements for trace in base)
                for k in SUPERVISED_KS:
                    c = 2.0 ** k
                    for j, (got, want) in enumerate(zip(supervised_runs(c, length, dt, ac), base)):
                        if (got.to_trajectory().samples, got.bc_engagements, got.collision is None) != (
                                lengths_scaled(want.to_trajectory(), c).samples, want.bc_engagements,
                                want.collision is None):
                            misses.append(("run_supervised", length, dt, ac.__name__, k, j))
        starts = lockstep_starts(length)
        base = lockstep_outcomes(1.0, length, starts)
        # the lockstep engine runs every row itself, and every negative control collides
        assert not any(base[0]) and not any(base[3]) and all(base[4])
        for k in LOCKSTEP_KS:
            if lockstep_outcomes(2.0 ** k, length, starts) != base:
                misses.append(("lockstep", length, k))
    # the runs engage the baseline controller, so its phases are exercised
    assert engaged > 0
    assert misses == [], f"{len(misses)} checks missed, first {misses[:3]}"
