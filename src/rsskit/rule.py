"""Safe-distance rule for the single-lane same-direction scenario.

The safe distance is the worst-case stopping distance of the rear
vehicle (accelerate at a_max for rho, then brake at a_brake_min to a
halt) minus the emergency stopping distance of the front vehicle,
clamped at zero.  The instantaneous condition requires the free space
between the vehicles (gap minus vehicle_length) to strictly exceed it.
"""
from __future__ import annotations

from math import inf
from typing import NamedTuple

from .core import RssParams, ScenarioState
from .errors import DomainError


def travel_terms(params: RssParams, v_r: float, v_f: float):
    """The formula's four travels: (SV response travel, SV response
    acceleration gain, SV braking travel, POV braking travel).

    travel_arithmetic is the one definition of the formula; the
    breakdown, the raw value and the two stopping distances in dynamics
    are sums of these terms.  Speeds outside [0, inf) and terms that
    overflow raise DomainError.
    """
    # written so that NaN fails too
    if not (0 <= v_r < inf and 0 <= v_f < inf):
        raise DomainError(
            f"velocities must be finite and >= 0, got v_r={v_r!r}, v_f={v_f!r}"
        )
    try:
        response_travel, response_gain, sv_brake, pov_brake = travel_arithmetic(
            params, v_r, (v_r + params.a_max * params.rho) ** 2, v_f ** 2)
    except OverflowError:  # ** raises where * and / give inf
        response_travel = response_gain = sv_brake = pov_brake = inf
    # an overflowing term makes d_min inf or, as inf - inf, NaN
    if not (pov_brake < inf and response_travel + response_gain + sv_brake < inf):
        raise DomainError(f"the safe distance overflows at v_r={v_r!r}, v_f={v_f!r}")
    return response_travel, response_gain, sv_brake, pov_brake


def travel_arithmetic(params: RssParams, v_r, v_peak_sq, v_f_sq):
    """travel_terms' arithmetic without its checks, on floats or numpy
    arrays, from v_r and the squares of the SV's peak speed v_r + a_max*rho
    and of v_f.  Both callers square with libm pow, so the terms agree bit
    for bit: ** on a float, np.float_power on an array (x*x and np.power
    can differ by an ulp).  This holds while numpy has no vectorised
    float64 loop for float_power, as in numpy 2.4.6;
    tests/test_lockstep.py::test_float_power_squares_as_pow guards it."""
    return (
        v_r * params.rho,
        0.5 * params.a_max * params.rho ** 2,
        v_peak_sq / (2.0 * params.a_brake_min),
        v_f_sq / (2.0 * params.a_brake_max),
    )


def safe_distance_terms(params: RssParams, v_r: float, v_f: float) -> dict:
    """Term-by-term breakdown of the safe-distance formula (for diagnostics)."""
    terms = travel_terms(params, v_r, v_f)
    raw = terms[0] + terms[1] + terms[2] - terms[3]  # safe_distance_raw's sum
    return {
        "response_travel": terms[0],
        "response_gain": terms[1],
        "sv_brake_travel": terms[2],
        "pov_brake_travel": terms[3],
        "raw": raw,
        "d_min": max(0.0, raw),
    }


def safe_distance_raw(params: RssParams, v_r: float, v_f: float) -> float:
    """The pre-clamp inner expression; may be negative."""
    response_travel, response_gain, sv_brake, pov_brake = travel_terms(params, v_r, v_f)
    return response_travel + response_gain + sv_brake - pov_brake


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
    return (
        state.x_f - state.x_r - params.vehicle_length
        - max(0.0, safe_distance_raw(params, state.v_r, state.v_f))
    )


def evaluate(params: RssParams, state: ScenarioState) -> SafetyEvaluation:
    d_min = max(0.0, safe_distance_raw(params, state.v_r, state.v_f))
    gap = state.gap
    margin = gap - params.vehicle_length - d_min
    return SafetyEvaluation(
        d_min=d_min,
        gap=gap,
        margin=margin,
        condition_holds=margin > 0.0,
    )
