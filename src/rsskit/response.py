"""The proper response as an executable controller state machine.

An episode runs through three phases: a response window of at most rho
seconds with arbitrary but bounded behavior, then maximum comfortable
braking, then a halt that is held for the rest of the episode.  Inside
the window the SV holds the advanced controller's last command, clamped
to its bounds; the worst case is holding a_max.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import RssParams
from .dynamics import check_step

RESPONSE_WINDOW = "response_window"
BRAKING = "braking"
HALTED = "halted"


class ResponsePhase(NamedTuple):
    """Phase of one proper-response episode.

    elapsed tracks time spent in the response window; it never exceeds
    rho while the phase is still the window.  command is the AC command
    clamped at engagement, which the window holds.  Transitions are
    monotone: window -> braking -> halted.
    """

    kind: str
    elapsed: float = 0.0
    command: float = 0.0


def proper_response_command(params: RssParams, phase: ResponsePhase, v_r: float) -> float:
    """Commanded SV acceleration for the current phase.

    Inside the response window the SV keeps the phase's command, clamped
    to [-a_brake_min, a_max].  The braking phase commands -a_brake_min
    until the vehicle stops; a halted vehicle stays halted.
    """
    if phase.kind == RESPONSE_WINDOW:
        return min(params.a_max, max(-params.a_brake_min, phase.command))
    if phase.kind == BRAKING:
        return -params.a_brake_min if v_r > 0.0 else 0.0
    return 0.0


def advance_phase(
    params: RssParams, phase: ResponsePhase, dt: float, v_r_next: float
) -> ResponsePhase:
    """Advance the episode clock by dt, given the velocity after the step.

    The window may end before rho has fully elapsed (a shorter actual
    response time is always admissible); it must end once elapsed + dt
    reaches rho.
    """
    check_step(dt)
    if phase.kind == RESPONSE_WINDOW:
        elapsed = phase.elapsed + dt
        if elapsed >= params.rho:
            return ResponsePhase(BRAKING, min(elapsed, params.rho))
        return ResponsePhase(RESPONSE_WINDOW, elapsed, phase.command)
    if phase.kind == BRAKING and v_r_next <= 0.0:
        return ResponsePhase(HALTED, phase.elapsed)
    return phase
