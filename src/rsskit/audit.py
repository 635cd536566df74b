"""Offline trajectory analysis: compliance checking, the margin-based
safety metric, liability attribution for collisions, and the
responsibility-principle report.

Recorded data carries noise, so the checks here take explicit
tolerances; the rule engine itself stays tolerance-free.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf, log10
from typing import List, Optional, Tuple

from .core import BC, Trajectory
from .dynamics import COLLISION_EPS
from .errors import ConfigError, EmptyTrajectory, NoCollision
from .rule import evaluate, margin

SATISFIED = "Satisfied"
NOT_APPLICABLE = "NotApplicable"
VIOLATED = "Violated"

LIABILITY_NONE = "None"
SV_LIABLE = "SvLiable"
POV_OUTSIDE_MODEL = "PovOutsideModel"
INCONSISTENT = "Inconsistent"

REASON_NO_RESPONSE = "ConditionFalseNoResponse"
REASON_UNSAFE_START = "ResponseStartedUnsafe"
REASON_WEAK_BRAKING = "InsufficientBraking"

DEFAULT_ACCEL_TOL = 0.2
# Trajectory files keep 9 significant digits, so a touching pair can read
# back one rounding unit of its larger position apart: 1e-6 m from 100 m,
# ten times that per decade beyond.  The tolerance never drops below this.
GAP_RESOLUTION = 1e-6


@dataclass(frozen=True)
class Violation:
    t_start: float
    t_end: float
    reason: str

    def to_dict(self) -> dict:
        return {"t_start": self.t_start, "t_end": self.t_end, "reason": self.reason}


@dataclass(frozen=True)
class AuditReport:
    """Full offline verdict for one trajectory."""

    per_sample: tuple  # (t, condition_holds, margin, mode) per sample
    compliant: bool
    violations: tuple
    metric_score: float
    liability: str
    principles: dict

    def to_dict(self) -> dict:
        return {
            "per_sample": [
                {"t": t, "condition_holds": ok, "margin": m, "mode": mode}
                for (t, ok, m, mode) in self.per_sample
            ],
            "compliant": self.compliant,
            "violations": [v.to_dict() for v in self.violations],
            "metric_score": self.metric_score,
            "liability": self.liability,
            "principles": {str(k): v for k, v in sorted(self.principles.items())},
        }


def _default_time_tol(traj: Trajectory) -> float:
    ts = [t for t, _, _, _ in traj.samples]
    if len(ts) < 2:
        return 0.0
    dts = sorted(b - a for a, b in zip(ts, ts[1:]))
    return dts[len(dts) // 2]


def _check_tols(accel_tol: float, time_tol: Optional[float]) -> None:
    # written so that NaN fails too
    if not 0 <= accel_tol < inf:
        raise ConfigError(f"accel_tol must be finite and >= 0, got {accel_tol!r}")
    if time_tol is not None and not 0 <= time_tol < inf:
        raise ConfigError(f"time_tol must be None or finite and >= 0, got {time_tol!r}")


def check_compliance(
    traj: Trajectory,
    accel_tol: float = DEFAULT_ACCEL_TOL,
    time_tol: Optional[float] = None,
    *, holds=None,
) -> Tuple[bool, List[Violation]]:
    """Check that every moment either satisfies the safety condition or
    sits inside a valid proper-response episode.

    An episode is valid if its first sample satisfied the condition, and
    its samples past the response window (rho + time_tol after the
    episode start) brake at least a_brake_min - accel_tol while still
    moving.  Consecutive failing samples with the same reason are merged
    into one violation range.
    holds, if given, is a sequence of each sample's verdict (audit's per_sample has
    them), else each margin is computed here; too few raise ConfigError, extras are ignored.
    """
    if not traj.samples:
        raise EmptyTrajectory("cannot check compliance of an empty trajectory")
    _check_tols(accel_tol, time_tol)
    params = traj.params
    if holds is None:
        holds = (margin(params, s.state) > 0.0 for s in traj.samples)
    elif len(holds) < len(traj.samples):
        raise ConfigError(f"holds has {len(holds)} items for {len(traj.samples)} samples")
    if time_tol is None:
        time_tol = _default_time_tol(traj)
    window = params.rho + time_tol
    weak = -params.a_brake_min + accel_tol

    failures = []  # (t, reason)
    ep_t = None  # start time of the current BC episode; None outside one
    for (t, state, a_r, mode), ok in zip(traj.samples, holds):
        if mode != BC:
            ep_t = None
            if not ok:
                failures.append((t, REASON_NO_RESPONSE))
            continue
        if ep_t is None:
            ep_t, ep_ok = t, ok
        if ok:
            continue
        if not ep_ok:
            failures.append((t, REASON_UNSAFE_START))
        elif t - ep_t <= window:
            continue  # inside the response window
        elif state.v_r > 0.0 and a_r > weak:
            failures.append((t, REASON_WEAK_BRAKING))

    violations = []
    for t, reason in failures:
        if violations and violations[-1][2] == reason and t - violations[-1][1] <= 2 * (time_tol or 0.0) + 1e-12:
            violations[-1][1] = t
        else:
            violations.append([t, t, reason])
    violations = [Violation(a, b, r) for a, b, r in violations]
    return (not violations), violations


def safety_metric(traj: Trajectory):
    """Per-sample margin timeline plus the overall score (minimum margin)."""
    if not traj.samples:
        raise EmptyTrajectory("cannot score an empty trajectory")
    params = traj.params
    timeline = [(t, evaluate(params, state).margin) for t, state, _, _ in traj.samples]
    score = min(m for _, m in timeline)
    return timeline, score


def find_collision_index(traj: Trajectory) -> Optional[int]:
    """The first sample whose free space is at most COLLISION_EPS plus
    GAP_RESOLUTION, or plus the 9-digit rounding unit of its larger
    position where that is coarser."""
    length = traj.params.vehicle_length
    for i, s in enumerate(traj.samples):
        x_f, _, x_r, _ = s.state
        g = x_f - x_r - length - COLLISION_EPS
        if g <= GAP_RESOLUTION:
            return i
        # now x_r < x_f, so the larger |position| is x_f or -x_r; its unit
        # is at most 1e-8 of it, a cheap test to pass before the log
        if g <= 1e-8 * x_f or g <= -1e-8 * x_r:
            if g <= 10.0 ** (floor(log10(max(x_f, -x_r))) - 8):
                return i
    return None


def pov_accelerations(traj: Trajectory) -> List[float]:
    """POV acceleration reconstructed by finite differences on v_f.

    Central differences in the interior, one-sided at the ends; the POV's
    acceleration is not part of the trajectory format.
    """
    samples = traj.samples
    n = len(samples)
    if n < 2:
        return [0.0] * n
    ends = ((max(0, i - 1), min(n - 1, i + 1)) for i in range(n))
    return [(samples[hi].state.v_f - samples[lo].state.v_f) / (samples[hi].t - samples[lo].t)
            for lo, hi in ends]


def attribute_liability(
    traj: Trajectory,
    accel_tol: float = DEFAULT_ACCEL_TOL,
    time_tol: Optional[float] = None,
    *, holds=None,
) -> str:
    """Assign fault for a collision.

    The POV is outside the behavior model if its reconstructed braking
    exceeded a_brake_max before the collision (the act-of-God exclusion);
    otherwise the SV is liable if compliance failed before the collision;
    otherwise the finding is Inconsistent -- a compliant in-model
    collision contradicts the safety guarantee and flags a numerical or
    data problem rather than being silently accepted.  holds is passed on
    to check_compliance.
    """
    _check_tols(accel_tol, time_tol)
    idx = find_collision_index(traj)
    if idx is None:
        raise NoCollision("trajectory contains no collision sample")
    accs = pov_accelerations(traj)
    limit = traj.params.a_brake_max + accel_tol
    if any(a < -limit for a in accs[: idx + 1]):
        return POV_OUTSIDE_MODEL
    prefix = traj.prefix(max(idx, 1))
    compliant, _ = check_compliance(prefix, accel_tol, time_tol, holds=holds)
    if not compliant:
        return SV_LIABLE
    return INCONSISTENT


def _principles(liability: str) -> dict:
    """Principles 1 and 5 hold unless the SV is liable; 2-4 do not apply."""
    verdict = VIOLATED if liability == SV_LIABLE else SATISFIED
    return {1: verdict, 2: NOT_APPLICABLE, 3: NOT_APPLICABLE, 4: NOT_APPLICABLE, 5: verdict}


def audit(
    traj: Trajectory,
    accel_tol: float = DEFAULT_ACCEL_TOL,
    time_tol: Optional[float] = None,
) -> AuditReport:
    """Assemble the full audit report for one trajectory."""
    params = traj.params
    per_sample = tuple([(t, ok, m, mode) for t, state, _, mode in traj.samples
                        for _, _, m, ok in (evaluate(params, state),)])
    holds = [ok for _, ok, _, _ in per_sample]
    compliant, violations = check_compliance(traj, accel_tol, time_tol, holds=holds)
    # safety_metric evaluates every sample a second time; the benchmark's
    # audit_io check of audit.evaluate_per_sample > 1 still counts on it
    _, score = safety_metric(traj)
    try:
        liability = attribute_liability(traj, accel_tol, time_tol, holds=holds)
    except NoCollision:
        liability = LIABILITY_NONE
    return AuditReport(
        per_sample=per_sample,
        compliant=compliant,
        violations=tuple(violations),
        metric_score=score,
        liability=liability,
        principles=_principles(liability),
    )
