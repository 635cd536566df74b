"""Desk-scale numerical verification campaigns.

Monte-Carlo plus deterministic-grid checking of: the safety guarantee
(condition true implies collision-free worst-case and randomized
executions), its tightness (gaps at or below the threshold collide under
the worst case), and supervised-loop safety with adversarial advanced
controllers.  Campaigns are reproducible: the same seed and config yield
identical outcomes.  The array engines of batch, and numpy with them, are
executed when the first campaign runs.
"""
from __future__ import annotations

from math import inf, isnan
from dataclasses import asdict, dataclass, field, fields

from .audit import check_compliance
from .core import RssParams, ScenarioState, lazy_module, np, read_record, read_value, shown
from .dynamics import ALL_CASES, POV_A_FWD_MAX, worst_case_gap_analysis, worst_case_pov
from .errors import ConfigError, RssError
from .rule import safe_distance
from .supervisor import SupervisorConfig, adversarial_ac, run_supervised

batch = lazy_module("rsskit.batch")  # the array engines; executed on the first campaign

GRID_SPEEDS = tuple(float(v) for v in range(0, 45, 5))
GRID_MARGINS = (1e-3, 1.0, 10.0)
# Near-parity and mixed pairs so the deterministic grid alone exercises all
# four relative-velocity patterns (the 5 m/s speed grid cannot produce a
# crossing inside the response window on its own).
CASE_COVERAGE_PAIRS = ((20.0, 10.0), (10.0, 12.0), (10.0, 14.0), (5.0, 30.0))
# Each random trial draws up to this many POV segments and sorts their cut
# times; a larger count is refused rather than allocated per trial.
MAX_POV_SEGMENTS = 1000
# Random trials per draw matrix and batch-kernel call at up to 8 POV segments,
# which peaks under 5 MB traced by tracemalloc, grid included; longer POV
# schedules run proportionally fewer.  Supervised episodes run CHUNK per draw
# and engine call, which bounds the step blocks' arrays: 10k episodes peak at
# 40 MB resident (2.7 MB traced).  Trial i reads row i whatever the chunk.
CHUNK = 1024


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one verification campaign."""

    seed: int = 0
    n_trials: int = 1000
    v_min: float = 0.0
    v_max: float = 40.0
    margin_max: float = 50.0
    sim_dt: float = 0.05
    a_fwd_max: float = POV_A_FWD_MAX
    pov_segments_min: int = 3
    pov_segments_max: int = 8
    include_grid: bool = True

    def __post_init__(self) -> None:
        # read_record's type policy, but a NaN float meets the range checks below
        for f in fields(self):
            object.__setattr__(self, f.name, read_value("campaign", f.name, type(f.default), getattr(self, f.name), isnan))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {shown(self.seed)}")
        if self.n_trials < 0:
            raise ConfigError(f"n_trials must be >= 0, got {shown(self.n_trials)}")
        # the speed draws' width v_max - v_min overflows past 1.8e308
        if not (self.v_min <= self.v_max and self.v_max - self.v_min < inf):
            raise ConfigError("need v_min <= v_max, and a finite v_max - v_min")
        # starts sit margin_max * (0, 1] above the threshold; at or below
        # it, condition-satisfying samples would read as counterexamples
        if not self.margin_max > 0:
            raise ConfigError(f"margin_max must be > 0, got {shown(self.margin_max)}")
        if not self.sim_dt > 0:
            raise ConfigError("sim_dt must be > 0")
        if not 1 <= self.pov_segments_min <= self.pov_segments_max <= MAX_POV_SEGMENTS:
            raise ConfigError(
                f"need 1 <= pov_segments_min <= pov_segments_max <= {MAX_POV_SEGMENTS}, "
                f"got {shown(self.pov_segments_min)} and {shown(self.pov_segments_max)}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def campaign_from_dict(raw: dict) -> CampaignConfig:
    kinds = {key: type(value) for key, value in CampaignConfig().to_dict().items()}
    return CampaignConfig(**read_record(raw, "campaign", kinds))


@dataclass
class CampaignOutcome:
    """Aggregated result of one campaign run."""

    kind: str
    trials_run: int = 0
    counterexamples: list = field(default_factory=list)
    cases_seen: dict = field(default_factory=lambda: {c: 0 for c in ALL_CASES})
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "trials_run": self.trials_run,
            "n_counterexamples": len(self.counterexamples),
            "counterexamples": self.counterexamples,
            "cases_seen": dict(sorted(self.cases_seen.items())),
            "stats": dict(sorted(self.stats.items())),
        }


def _state_key(ce: dict):
    return (ce["v_r"], ce["v_f"], ce["gap"], ce.get("behavior", ""))


def _uniform(a, b, u):
    """The campaigns' draw in [a, b) from a draw u in [0, 1): Generator.uniform's
    formula, which tests/test_batch.py::test_uniform_is_affine_in_random
    compares.  a is a float, as uniform converts it: int - int is exact."""
    return float(a) + (b - float(a)) * u


def _safe_distances(params, v_r, v_f):
    """batch.safe_distances of drawn speeds, and where rule.safe_distance gives
    it: speeds >= 0 whose safe distance is defined, which makes them finite."""
    d_min, defined = batch.safe_distances(params, v_r, v_f)
    return d_min, defined & (0 <= v_r) & (0 <= v_f)


def _starts(params, cfg, u):
    """Starts (x_f, v_f, x_r, v_r) = (gap, v_f, 0, v_r) from the rows (v_r,
    v_f, margin) of u, draws of Generator.random(), and whether the scalar
    set-up (safe_distance, ScenarioState) accepts each; _refuse raises if not."""
    v_r, v_f = _uniform(cfg.v_min, cfg.v_max, u[:, :2].T)
    d_min, ok = _safe_distances(params, v_r, v_f)
    with np.errstate(over="ignore"):  # to inf, as the scalar sum
        gap = d_min + params.vehicle_length + cfg.margin_max * (1.0 - u[:, 2])
    return np.stack((gap, v_f, np.zeros(len(u)), v_r), axis=1), ok & (gap < inf)


def _refuse(params, starts, ok):
    """Raise the scalar set-up's error for the first start that _starts refused, if any."""
    for start in starts[~ok][:1].tolist():
        safe_distance(params, start[3], start[1])
        ScenarioState(*start)


def _schedules(u, k, n_cols, horizon, a_lo, a_hi, last=(inf, 0.0)):
    """Padded (starts, accels) of n_cols columns from each row's m - 1 cut-time
    then m acceleration draws in u: a piece from 0, one from each of the first
    k - 1 cut times, uniform in [0, horizon), in order, then the piece last,
    inf behind; the first k accelerations, uniform in [a_lo, a_hi), then
    last's.  The row's other draws are masked."""
    m, cols, k = (u.shape[1] + 1) // 2, np.arange(n_cols), k[:, None]
    starts, accels = np.full((len(u), n_cols), inf), np.zeros((len(u), n_cols))
    starts[:, 1:m] = _uniform(0.0, horizon[:, None], u[:, :m - 1])
    accels[:, :m] = _uniform(a_lo, a_hi, u[:, m - 1:])
    cut = (0 < cols) & (cols < k)
    if not np.isfinite(starts[cut]).all():
        raise ConfigError("the SV halt time overflows, so POV cut times cannot be drawn")
    starts[~cut], accels[cols >= k] = inf, 0.0
    starts[cols == k], accels[cols == k] = last
    starts[:, 0] = 0.0
    starts[:, 1:].sort(axis=1)
    return starts, accels


def verify_safety_theorem(params: RssParams, cfg: CampaignConfig) -> CampaignOutcome:
    """Check that condition-satisfying starts never collide.

    Every trial runs the closed-form worst case; random trials add one
    randomized admissible POV behavior paired with a randomized
    response-window policy.  Any collision is a counterexample; the
    expected count is zero.  The batch kernel analyzes CHUNK trials at once,
    the grid's worst cases with the first.  An error is the first trial's.
    """
    if cfg.a_fwd_max < -params.a_brake_max:
        raise ConfigError(
            f"a_fwd_max must be >= -a_brake_max {-params.a_brake_max!r}, got {cfg.a_fwd_max!r}"
        )
    # the widths of the acceleration draws
    if not (cfg.a_fwd_max + params.a_brake_max < inf and params.a_max + params.a_brake_min < inf):
        raise ConfigError("a_fwd_max + a_brake_max and a_max + a_brake_min must be finite")
    rng = np.random.default_rng(cfg.seed)
    outcome = CampaignOutcome("safety_theorem")
    outcome.stats["randomized_trials"] = 0
    outcome.stats["randomized_min_gap_below_worst"] = 0
    length, n_f = params.vehicle_length, cfg.pov_segments_max

    def trials(cols, prof_r, prof_f, behavior, n_grid):
        col_t, min_gap = batch.analyze_gaps(prof_r, prof_f, length)
        for i in np.flatnonzero(~np.isnan(col_t)).tolist():
            v_r, v_f, gap, t = (c[i].item() for c in (*cols, col_t))
            outcome.counterexamples.append(
                {"v_r": v_r, "v_f": v_f, "gap": gap, "behavior": behavior,
                 "collision_t": t, "source": "grid" if i < n_grid else "random"}
            )
        return min_gap

    def run(grid, u):
        """The worst cases of the grid starts (gap, v_f, 0, v_r) and of the
        trials of the draw rows u in one call, then u's randomized trials."""
        starts, ok = _starts(params, cfg, u[:, :3])
        _refuse(params, starts, ok)  # before the rows run
        gap, v_f, _, v_r = np.concatenate((grid, starts)).T
        case, t_end = batch.classify_worst_cases(params, v_r, v_f)
        for name, count in zip(ALL_CASES, np.bincount(case, minlength=len(ALL_CASES)).tolist()):
            outcome.cases_seen[name] += count
        outcome.trials_run += len(gap)
        prof_r = batch.build_profiles(np.zeros(len(gap)), v_r, np.array([[0.0, params.rho]]),
                                      np.array([[params.a_max, -params.a_brake_min]]), t_end)
        prof_f = batch.build_profiles(gap, v_f, np.zeros((1, 1)), np.array([[-params.a_brake_max]]), t_end)
        worst_min_gap = trials((v_r, v_f, gap), prof_r, prof_f, "worst_case", len(grid))[len(grid):]
        n, horizon = len(u), t_end[len(grid):] + 1.0
        gap, v_f, _, v_r = starts.T
        k = cfg.pov_segments_min + (u[:, 3] * (n_f + 1 - cfg.pov_segments_min)).astype(int)
        starts_f, accels_f = _schedules(u[:, 4:3 + 2 * n_f], k, n_f, horizon, -params.a_brake_max, cfg.a_fwd_max)
        j = 1 + (u[:, 3 + 2 * n_f] * 3).astype(int)
        starts_r, accels_r = _schedules(u[:, 4 + 2 * n_f:], j, 4, np.full(n, params.rho), -params.a_brake_min,
                                        params.a_max, (params.rho, -params.a_brake_min))
        prof_r = batch.build_profiles(np.zeros(n), v_r, starts_r, accels_r, horizon)
        prof_f = batch.build_profiles(gap, v_f, starts_f, accels_f, horizon)
        rand_min_gap = trials((v_r, v_f, gap), prof_r, prof_f, "randomized", 0)
        outcome.stats["randomized_trials"] += n
        below = rand_min_gap < worst_min_gap - 1e-9
        outcome.stats["randomized_min_gap_below_worst"] += int(below.sum())

    grid = np.empty((0, 4))
    if cfg.include_grid:
        pairs = [(v_r, v_f, safe_distance(params, v_r, v_f))
                 for v_r in GRID_SPEEDS for v_f in GRID_SPEEDS]
        grid = [(d + length + m, v_f, 0.0, v_r) for v_r, v_f, d in pairs for m in GRID_MARGINS]
        grid = np.array(grid + [(safe_distance(params, v_r, v_f) + length + 5.0, v_f, 0.0, v_r)
                                for v_r, v_f in CASE_COVERAGE_PAIRS])

    chunk = max(16, CHUNK * 8 // max(8, n_f))
    for lo in range(0, cfg.n_trials or cfg.include_grid, chunk):  # n_trials 0 runs the grid
        # row i is trial lo + i: v_r, v_f, margin; k; n_f - 1 POV cut times and
        # n_f accelerations; j; 2 window cut times and 3 accelerations
        u = rng.random((min(chunk, cfg.n_trials - lo), 2 * n_f + 9))
        try:
            run(grid, u)
        except RssError:  # the first row's error, grid rows first, whatever the chunk
            for i in range(len(grid) + len(u)):
                run(grid[i:i + 1], u[max(0, i - len(grid)):max(0, i + 1 - len(grid))])
            raise
        grid = grid[:0]

    outcome.counterexamples.sort(key=_state_key)
    return outcome


def falsify_below_threshold(params: RssParams, cfg: CampaignConfig) -> CampaignOutcome:
    """Check tightness: a gap at or below the threshold collides in the
    worst case.  Collision-free trials are counterexamples.

    Every tenth random trial uses the exact boundary gap, where touching
    at the halt counts as a collision.
    """
    rng = np.random.default_rng(cfg.seed)
    outcome = CampaignOutcome("falsification")

    def trial(v_r, v_f, gap, label):
        start = ScenarioState(gap, v_f, 0.0, v_r)
        col_t, _, min_gap, _, _, _ = worst_case_gap_analysis(params, start)
        outcome.trials_run += 1
        if col_t is None:
            outcome.counterexamples.append(
                {"v_r": v_r, "v_f": v_f, "gap": gap, "min_gap": min_gap,
                 "source": label}
            )

    if cfg.include_grid:
        for v_r in GRID_SPEEDS:
            for v_f in GRID_SPEEDS:
                d = safe_distance(params, v_r, v_f)
                if d > 0.0:
                    trial(v_r, v_f, d + params.vehicle_length, "grid_boundary")

    # Attempt a reads row a of (v_r, v_f, u_gap) rows, drawn in blocks of at
    # most CHUNK that hold no attempt past the last trial or the cap; a pair
    # with d_min <= 0 is no trial, and every tenth trial starts on the boundary.
    attempts = done = 0
    cap = 100 * max(1, cfg.n_trials)
    while done < cfg.n_trials:
        if attempts == cap:
            raise ConfigError(
                "sampled velocity ranges never produce a positive safe distance; "
                "nothing to falsify"
            )
        u = rng.random((min(cfg.n_trials - done, cap - attempts, CHUNK), 3))
        attempts += len(u)
        v_r, v_f = _uniform(cfg.v_min, cfg.v_max, u[:, :2].T)
        d, defined = _safe_distances(params, v_r, v_f)
        n = len(u) if defined.all() else int(defined.argmin())  # the rows before an undefined pair
        kept = np.flatnonzero(d[:n] > 0.0)
        d, tenth = d[kept], (done + 1 + np.arange(len(kept))) % 10 == 0
        gap = np.where(tenth, d, d * (1.0 - u[kept, 2]))
        gap = np.where(gap <= 0.0, d, gap) + params.vehicle_length
        for args in zip(v_r[kept].tolist(), v_f[kept].tolist(), gap.tolist()):
            trial(*args, "random")
        done += len(kept)
        if n < len(u):
            safe_distance(params, v_r[n].item(), v_f[n].item())  # raises the scalar DomainError

    outcome.counterexamples.sort(key=lambda ce: (ce["v_r"], ce["v_f"], ce["gap"]))
    return outcome


def verify_supervised_safety(
    params: RssParams,
    sup_cfg: SupervisorConfig,
    cfg: CampaignConfig,
    supervised: bool = True,
) -> CampaignOutcome:
    """Run seeded supervised episodes with an adversarial advanced
    controller against the worst-case POV; expect zero collisions and
    full audit compliance.  With supervised=False this is the negative
    control and collisions are expected.

    CHUNK episodes at a time run in lockstep (batch.supervised_lockstep)
    or, in the negative control, in batch.unsupervised_runs; those they
    hand back run through run_supervised and check_compliance in trial
    order, so errors and counterexamples are the scalar path's.
    """
    rng = np.random.default_rng(cfg.seed)
    engine = batch.supervised_lockstep if supervised else batch.unsupervised_runs
    outcome = CampaignOutcome("supervised" if supervised else "supervised_negative",
                              stats={"collisions": 0, "noncompliant": 0, "bc_engagements": 0})
    for lo in range(0, cfg.n_trials, CHUNK):  # a chunk's row i is trial lo + i, whatever CHUNK
        starts, ok = _starts(params, cfg, rng.random((min(CHUNK, cfg.n_trials - lo), 3)))
        n = len(ok) if ok.all() else int(ok.argmin())  # the trials before the first refused one
        fallback, eng, compliant = np.zeros(n, bool), np.zeros(n, int), np.ones(n, bool)
        collision = [None] * n  # a list: a numpy array would try to unpack each sample tuple
        if n:  # the chunk's first start is not refused
            parts = engine(params, sup_cfg, starts[:n], cfg.sim_dt, 60.0)
            for z, part in zip((fallback, eng, compliant) if supervised else (fallback, collision), parts):
                z[:] = part
        for j in np.flatnonzero(fallback).tolist():  # the scalar path, and oracle
            trace = run_supervised(params, sup_cfg, ScenarioState(*starts[j].tolist()), adversarial_ac(params),
                                   worst_case_pov(params), dt=cfg.sim_dt, t_end=60.0, supervised=supervised)
            eng[j], collision[j] = trace.bc_engagements, trace.collision
            compliant[j] = not supervised or check_compliance(trace)[0]
        _refuse(params, starts, ok)  # once the trials before it have run
        collided = np.array([c is not None for c in collision], bool)
        for j in np.flatnonzero((collided & supervised) | ~compliant).tolist():
            g, f, _, r = starts[j].tolist()
            ce = {"v_r": r, "v_f": f, "gap": g, "behavior": "adversarial_ac"}
            if collided[j] and supervised:
                outcome.counterexamples.append({**ce, "collision_t": collision[j].t, "source": "random"})
            if not compliant[j]:
                outcome.counterexamples.append({**ce, "collision_t": None, "source": "noncompliant"})
        outcome.trials_run += n
        for key, count in zip(outcome.stats, (collided.sum(), n - compliant.sum(), eng.sum())):
            outcome.stats[key] += int(count)
    outcome.counterexamples.sort(key=_state_key)
    return outcome
