"""Desk-scale numerical verification campaigns.

Monte-Carlo plus deterministic-grid checking of: the safety guarantee
(condition true implies collision-free worst-case and randomized
executions), its tightness (gaps at or below the threshold collide under
the worst case), and supervised-loop safety with adversarial advanced
controllers.  Campaigns are reproducible: the same seed and config yield
identical outcomes.
"""
from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .audit import check_compliance
from .core import RssParams, ScenarioState
from .dynamics import (
    ALL_CASES,
    analyze_gap,
    build_profile,
    classify_worst_case,
    worst_case_gap_analysis,
    worst_case_pov,
)
from .errors import ConfigError
from .rule import safe_distance
from .supervisor import SupervisorConfig, adversarial_ac, run_supervised

GRID_SPEEDS = tuple(float(v) for v in range(0, 45, 5))
GRID_MARGINS = (1e-3, 1.0, 10.0)
# Near-parity and mixed pairs so the deterministic grid alone exercises all
# four relative-velocity patterns (the 5 m/s speed grid cannot produce a
# crossing inside the response window on its own).
CASE_COVERAGE_PAIRS = ((20.0, 10.0), (10.0, 12.0), (10.0, 14.0), (5.0, 30.0))
# Each random trial draws up to this many POV segments and sorts their cut
# times; a larger count is refused rather than allocated per trial.
MAX_POV_SEGMENTS = 1000
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one verification campaign."""

    seed: int = 0
    n_trials: int = 1000
    v_min: float = 0.0
    v_max: float = 40.0
    margin_max: float = 50.0
    sim_dt: float = 0.05
    a_fwd_max: float = 2.0
    pov_segments_min: int = 3
    pov_segments_max: int = 8
    include_grid: bool = True

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.n_trials < 0:
            raise ConfigError(f"n_trials must be >= 0, got {self.n_trials!r}")
        if not self.v_min <= self.v_max:
            raise ConfigError("need v_min <= v_max")
        # starts sit margin_max * (0, 1] above the threshold; at or below
        # it, condition-satisfying samples would read as counterexamples
        if not self.margin_max > 0:
            raise ConfigError(f"margin_max must be > 0, got {self.margin_max!r}")
        if not self.sim_dt > 0:
            raise ConfigError("sim_dt must be > 0")
        if not 1 <= self.pov_segments_min <= self.pov_segments_max <= MAX_POV_SEGMENTS:
            raise ConfigError(
                f"need 1 <= pov_segments_min <= pov_segments_max <= {MAX_POV_SEGMENTS}, "
                f"got {self.pov_segments_min!r} and {self.pov_segments_max!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def campaign_from_dict(raw: dict) -> CampaignConfig:
    if not isinstance(raw, dict):
        raise ConfigError("campaign config must be a mapping")
    defaults = CampaignConfig().to_dict()
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown campaign keys: {', '.join(sorted(unknown))}")
    for key, value in raw.items():
        want = type(defaults[key])
        ok = type(value) is want or (want is float and type(value) is int)
        # compared, not math.isfinite(), which raises on an int too big for a float
        if not ok or (want is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX):
            raise ConfigError(
                f"campaign key {key!r} must be a finite {want.__name__}, got {value!r}"
            )
    return CampaignConfig(**raw)


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


def _randomized_min_gap(params, cfg, rng, start, horizon):
    """Exact min gap under one random admissible POV/SV behavior pair.

    The SV follows the proper response with a random piecewise-constant
    response-window policy; the POV runs a random piecewise-constant
    acceleration within its bounds.  Piecewise-constant accelerations make
    the motion closed-form, so no step error is involved.
    """
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


def verify_safety_theorem(params: RssParams, cfg: CampaignConfig) -> CampaignOutcome:
    """Check that condition-satisfying starts never collide.

    Every trial runs the closed-form worst case; random trials add one
    randomized admissible POV behavior paired with a randomized
    response-window policy.  Any collision is a counterexample; the
    expected count is zero.
    """
    if cfg.a_fwd_max < -params.a_brake_max:
        raise ConfigError(
            f"a_fwd_max must be >= -a_brake_max {-params.a_brake_max!r}, got {cfg.a_fwd_max!r}"
        )
    rng = np.random.default_rng(cfg.seed)
    outcome = CampaignOutcome("safety_theorem")
    outcome.stats["randomized_trials"] = 0
    outcome.stats["randomized_min_gap_below_worst"] = 0

    def worst_trial(v_r, v_f, gap, label):
        start = ScenarioState(gap, v_f, 0.0, v_r)
        col_t, _, min_gap, _, t_sv_halt, _ = worst_case_gap_analysis(params, start)
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
        margin = cfg.margin_max * (1.0 - float(rng.random()))  # in (0, margin_max]
        gap = safe_distance(params, v_r, v_f) + length + margin
        start, worst_min_gap, t_sv_halt = worst_trial(v_r, v_f, gap, "random")

        horizon = t_sv_halt + 1.0
        col_t, rand_min_gap = _randomized_min_gap(params, cfg, rng, start, horizon)
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

    attempts = 0
    done = 0
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
    """
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
        margin = cfg.margin_max * (1.0 - float(rng.random()))
        gap = safe_distance(params, v_r, v_f) + params.vehicle_length + margin
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
