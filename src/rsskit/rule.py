"""Safe-distance rule for the single-lane same-direction scenario.

The safe distance is the worst-case stopping distance of the rear
vehicle (accelerate at a_max for rho, then brake at a_brake_min to a
halt) minus the emergency stopping distance of the front vehicle,
clamped at zero.  The instantaneous condition requires the free space
between the vehicles (gap minus vehicle_length) to strictly exceed it.
"""
from __future__ import annotations

from math import inf
from sys import float_info
from typing import NamedTuple

from .core import RssParams, ScenarioState, shown
from .errors import DomainError


def _checked(params: RssParams, v_r, v_f):
    """_terms of bare speeds, once they pass the checks ScenarioState makes."""
    # written so that NaN fails too, and an int that no float holds; a bool
    # (numpy's refuses v - v), an array (unhashable, whatever its shape) or a
    # value that is no number is no speed, as ScenarioState has it
    try:
        hash((v_r, v_f))
        speeds = v_r - v_r == 0 <= v_r <= float_info.max and v_f - v_f == 0 <= v_f <= float_info.max
    except (TypeError, ValueError):
        speeds = False
    if not speeds or v_r is True or v_r is False or v_f is True or v_f is False:
        raise DomainError(f"velocities must be finite and >= 0, got v_r={shown(v_r)}, v_f={shown(v_f)}")
    return _terms(params, v_r, v_f)


def _terms(params: RssParams, v_r, v_f):
    """travel_arithmetic of speeds a ScenarioState or _checked has vouched
    for, with the overflow check."""
    # as floats, as the array rule reads them: an int squares to an int
    terms = travel_arithmetic(params, float(v_r), float(v_f))
    # an overflowing term makes the raw value infinite or, as inf - inf, NaN
    if not -inf < terms[4] < inf:
        raise DomainError(f"the safe distance overflows at v_r={v_r!r}, v_f={v_f!r}")
    return terms


def travel_arithmetic(params: RssParams, v_r, v_f):
    """The formula's four travels (SV response travel, SV response
    acceleration gain, SV braking travel, POV braking travel), then the raw
    value response_travel + response_gain + sv_brake - pov_brake, unchecked,
    on floats or numpy arrays: the one definition of the formula and of the
    travels' sum, which every d_min here, in batch and in dynamics' SV
    stopping distance reads.  It squares by multiplication, which IEEE
    rounds correctly in Python and numpy alike, so both engines agree bit
    for bit and scale exactly under power-of-two unit rescaling; a square
    that overflows is inf."""
    v_peak = v_r + params.a_max * params.rho
    response_travel, response_gain = v_r * params.rho, 0.5 * params.a_max * (params.rho * params.rho)
    sv_brake, pov_brake = v_peak * v_peak / (2.0 * params.a_brake_min), v_f * v_f / (2.0 * params.a_brake_max)
    raw = response_travel + response_gain + sv_brake - pov_brake
    return response_travel, response_gain, sv_brake, pov_brake, raw


def safe_distance_terms(params: RssParams, v_r: float, v_f: float) -> dict:
    """Term-by-term breakdown of the safe-distance formula (for diagnostics)."""
    terms = _checked(params, v_r, v_f)
    return {
        "response_travel": terms[0],
        "response_gain": terms[1],
        "sv_brake_travel": terms[2],
        "pov_brake_travel": terms[3],
        "raw": terms[4],
        "d_min": max(0.0, terms[4]),
    }


def safe_distance_raw(params: RssParams, v_r: float, v_f: float) -> float:
    """The pre-clamp inner expression; may be negative."""
    return _checked(params, v_r, v_f)[4]


def safe_distance(params: RssParams, v_r: float, v_f: float) -> float:
    """Minimum safe gap for the given rear/front velocities; always >= 0."""
    return max(0.0, safe_distance_raw(params, v_r, v_f))


class SafetyEvaluation(NamedTuple):
    """Result of checking the safety condition at one state.

    gap is the distance between the reference points; margin is
    gap - vehicle_length - d_min, so d_min is the free space the rule
    asks for between the vehicles.  condition_holds uses the strict
    inequality margin > 0, so a margin of exactly zero is unsafe
    (touching counts as collision).
    """

    d_min: float
    gap: float
    margin: float
    condition_holds: bool


def margin(params: RssParams, state: ScenarioState) -> float:
    """The safety margin gap - vehicle_length - d_min, bit for bit as
    evaluate reports it; the condition holds iff it is > 0.  For callers
    that need neither d_min nor the gap."""
    x_f, v_f, x_r, v_r = state
    return x_f - x_r - params.vehicle_length - max(0.0, _terms(params, v_r, v_f)[4])


def evaluate(params: RssParams, state: ScenarioState) -> SafetyEvaluation:
    """The rule at one state.  Its speeds are not checked again: a
    ScenarioState is built only from speeds the rule accepts."""
    x_f, v_f, x_r, v_r = state
    d_min = max(0.0, _terms(params, v_r, v_f)[4])
    gap = x_f - x_r
    margin = gap - params.vehicle_length - d_min
    return tuple.__new__(SafetyEvaluation, (d_min, gap, margin, margin > 0.0))
