"""Simplex-architecture supervisor: advanced controller wrapped by a
decision module that engages the proper-response baseline controller.

The decision module runs every `period` seconds.  In AC mode it computes
the one-period worst-case successor (SV at +a_max, POV at -a_brake_max)
and engages the baseline controller while the safety condition still
holds if that successor would violate it.  In BC mode it switches back
once braking/halting has restored the margin beyond the hysteresis
threshold and the lookahead clears again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Optional, Tuple

from .core import AC, BC, RssParams, ScenarioState, read_value
from .dynamics import ExecutionTrace, advance_vehicle, check_step, read_command, run_fixed_step
from .errors import ConfigError, InvariantBreach
from .response import (
    BRAKING,
    HALTED,
    RESPONSE_WINDOW,
    ResponsePhase,
    advance_phase,
    proper_response_command,
)
from .rule import margin, safe_distance

# Sums of dt land a few ulps off rho even when dt divides it exactly; a
# response window longer than rho by less than this is not an overrun.
WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class SupervisorConfig:
    """Decision-module settings.

    period is the decision interval and must not exceed rho;
    switchback_margin is the hysteresis on returning to the advanced
    controller; sv_command_bounds clamp AC commands (None means
    [-a_brake_min, a_max], matching the capability assumptions of the
    safe-distance formula).
    """

    period: float = 0.1
    switchback_margin: float = 1.0
    sv_command_bounds: Optional[Tuple[float, float]] = None
    KINDS: ClassVar[dict] = {"period": float, "switchback_margin": float, "sv_command_bounds": tuple}

    def __post_init__(self) -> None:
        # read_record's type policy, but a NaN or infinite float meets the range checks
        for key, kind in self.KINDS.items():
            object.__setattr__(self, key, read_value("supervisor config", key, kind, getattr(self, key), lambda v: True))
        if not self.period > 0:
            raise ConfigError(f"period must be > 0, got {self.period!r}")
        if not 0 <= self.switchback_margin < math.inf:
            raise ConfigError(
                f"switchback_margin must be finite and >= 0, got {self.switchback_margin!r}"
            )

    def bounds(self, params: RssParams) -> Tuple[float, float]:
        if self.sv_command_bounds is not None:
            return self.sv_command_bounds
        return (-params.a_brake_min, params.a_max)

    def clamp(self, params: RssParams, ac_command: float, t: float) -> float:
        """The AC command at time t read as dynamics.read_command reads it,
        then clamped to the bounds."""
        lo, hi = self.bounds(params)
        return min(hi, max(lo, read_command("AC", t, ac_command)))

    def validate_against(self, params: RssParams, slack: float = 0.0) -> None:
        if self.period > params.rho + slack:
            raise ConfigError(
                f"decision interval {self.period!r} s must not exceed rho {params.rho!r}"
            )
        lo, hi = self.bounds(params)
        # the lookahead assumes the SV accelerates at most at a_max
        if not -math.inf < lo <= hi <= params.a_max:
            raise ConfigError(
                f"sv_command_bounds must be finite with lo <= hi <= a_max "
                f"{params.a_max!r}, got {(lo, hi)!r}"
            )


def worst_case_successor(
    params: RssParams, state: ScenarioState, delta: float
) -> ScenarioState:
    """State after delta seconds of SV at +a_max and POV at -a_brake_max."""
    x_r, v_r, _ = advance_vehicle(state.x_r, state.v_r, params.a_max, delta)
    x_f, v_f, _ = advance_vehicle(state.x_f, state.v_f, -params.a_brake_max, delta)
    return ScenarioState(x_f, v_f, x_r, v_r)


def decide(
    params: RssParams,
    cfg: SupervisorConfig,
    phase: Optional[ResponsePhase],
    state: ScenarioState,
    ac_command: float,
    t: float = 0.0,
):
    """One decision from the response episode phase, None in AC mode:
    returns (new phase, commanded acceleration).

    Raises DomainError if the AC command is not a finite number, and
    InvariantBreach if asked to decide from AC mode in a state where the
    safety condition already fails -- the supervised loop is responsible
    for never letting that happen.
    """
    clamped = cfg.clamp(params, ac_command, t)

    m = margin(params, state)
    if phase is None and not m > 0.0:
        raise InvariantBreach(
            f"AC-mode decision at t={t!r} with the safety condition violated "
            f"(margin {m!r}); the supervised loop is misconfigured"
        )
    # AC holds, or BC releases once braking has begun and the margin clears
    # the hysteresis threshold, only while the lookahead is clean.
    ac_allowed = phase is None or (phase.kind in (BRAKING, HALTED) and m > cfg.switchback_margin)
    if ac_allowed and margin(params, worst_case_successor(params, state, cfg.period)) > 0.0:
        return None, clamped
    if phase is None:
        phase = ResponsePhase(RESPONSE_WINDOW, 0.0, clamped)
    return phase, proper_response_command(params, phase, state.v_r)


def adversarial_ac(params: RssParams) -> Callable[[float, ScenarioState], float]:
    """Advanced controller that always floors it (stress test)."""
    return lambda t, state: params.a_max


def benign_ac(params: RssParams) -> Callable[[float, ScenarioState], float]:
    """Gap-tracking controller aiming at 1.5 times the safe distance of free space."""

    def policy(t, state):
        target = 1.5 * safe_distance(params, state.v_r, state.v_f) + params.vehicle_length
        return 0.5 * (state.gap - target) + (state.v_f - state.v_r)

    return policy


def decision_grid(
    params: RssParams, cfg: SupervisorConfig, dt: float, t_end: Optional[float]
) -> Tuple[int, SupervisorConfig, int]:
    """(k, cfg with period k * dt, check_step's step count to t_end) for a
    run at step dt: decisions every k = round(period / dt) steps look ahead
    over the realized interval.  Raises StepError or ConfigError where
    run_supervised refuses dt, t_end or cfg."""
    n_steps = check_step(dt, 0.0 if t_end is None else t_end)
    cfg.validate_against(params)
    steps_per_period = max(1, int(round(cfg.period / dt)))
    # when dt divides rho, k * dt may land a few ulps above it
    cfg = replace(cfg, period=steps_per_period * dt)
    cfg.validate_against(params, WINDOW_SLACK)
    return steps_per_period, cfg, n_steps


def run_supervised(
    params: RssParams,
    cfg: SupervisorConfig,
    start: ScenarioState,
    ac_policy: Callable[[float, ScenarioState], float],
    pov_policy: Callable[[float, float, float], float],
    dt: float = 1e-3,
    t_end: Optional[float] = None,
    supervised: bool = True,
) -> ExecutionTrace:
    """Closed-loop run with the supervisor in the SV command path.

    The supervisor is the control policy of dynamics.run_fixed_step.  It
    decides every k = round(period / dt) steps and looks ahead over the
    realized interval k * dt, which must not exceed rho by more than
    WINDOW_SLACK.  Between decisions the AC command is held, and in BC
    mode the proper-response command is recomputed each step; a step
    whose end would carry the response window past rho brakes instead.
    With supervised=False the (clamped) AC command passes straight
    through -- the negative control.  The run ends early once both
    vehicles have halted, at a decision step with no response episode
    mid-flight; unsupervised, at one whose command is not forward.  The
    trace counts BC engagements from the modes of its samples.
    """
    steps_per_period, cfg, _ = decision_grid(params, cfg, dt, t_end)
    m = margin(params, start)
    if not m > 0.0:
        raise InvariantBreach(
            f"supervised run must start with the safety condition true "
            f"(margin {m!r})"
        )
    if t_end is None:
        v_peak = start.v_r + params.a_max * params.rho
        t_end = 4.0 * (params.rho + v_peak / params.a_brake_min) + (
            start.v_f / params.a_brake_max
        ) + 10.0

    braking = ResponsePhase(BRAKING)
    phase, cmd = None, 0.0  # phase: the response episode, None in AC mode

    def supervisor_policy(i, t, state):
        nonlocal phase, cmd
        if phase is not None:
            phase = advance_phase(params, phase, dt, state.v_r)
        decision = i % steps_per_period == 0
        if decision:
            phase, cmd = decide(params, cfg, phase, state, ac_policy(t, state), t)
        if phase is None:
            return cmd, AC, decision
        window_ends = phase.kind == RESPONSE_WINDOW and phase.elapsed + dt > params.rho + WINDOW_SLACK
        cmd = proper_response_command(params, braking if window_ends else phase, state.v_r)
        return cmd, BC, decision and phase.kind == HALTED

    def pass_through(i, t, state):
        nonlocal cmd
        decision = i % steps_per_period == 0
        if decision:
            cmd = cfg.clamp(params, ac_policy(t, state), t)
        return cmd, AC, decision and cmd <= 0.0

    policy = supervisor_policy if supervised else pass_through
    return run_fixed_step(params, start, policy, pov_policy, dt, t_end)
