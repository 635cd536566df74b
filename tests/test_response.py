import math

import pytest

from rsskit.errors import StepError
from rsskit.response import (
    BRAKING,
    HALTED,
    RESPONSE_WINDOW,
    ResponsePhase,
    advance_phase,
    proper_response_command,
)


def test_begin_response(params):
    ph = ResponsePhase(RESPONSE_WINDOW)
    assert ph.kind == RESPONSE_WINDOW
    assert ph.elapsed == 0.0
    assert ph.command == 0.0


def window(command):
    return ResponsePhase(RESPONSE_WINDOW, 0.0, command)


def test_window_command_is_policy_clamped(params):
    assert proper_response_command(params, window(params.a_max), 10.0) == params.a_max
    assert proper_response_command(params, window(0.0), 10.0) == 0.0
    # out-of-range window commands are clamped to the capability bounds
    assert proper_response_command(params, window(99.0), 10.0) == params.a_max
    assert proper_response_command(params, window(-99.0), 10.0) == -params.a_brake_min
    assert proper_response_command(params, window(-1.0), 10.0) == -1.0


def test_braking_command(params):
    ph = window(params.a_max)
    ph = advance_phase(params, ph, params.rho, 12.0)
    assert ph.kind == BRAKING
    # past the window the window command is ignored
    assert proper_response_command(params, ph, 12.0) == -params.a_brake_min
    assert proper_response_command(params, ph._replace(command=params.a_max), 12.0) == -params.a_brake_min
    # a stopped vehicle is not pushed backwards
    assert proper_response_command(params, ph._replace(command=params.a_max), 0.0) == 0.0


def test_window_ends_exactly_at_rho(params):
    ph = window(1.5)
    ph = advance_phase(params, ph, 0.2, 10.0)
    assert ph.kind == RESPONSE_WINDOW
    assert ph.elapsed == pytest.approx(0.2)
    assert ph.command == 1.5  # carried while the window lasts
    ph = advance_phase(params, ph, 0.1, 10.0)
    assert ph.kind == BRAKING
    assert ph.elapsed <= params.rho


def test_halt_is_absorbing(params):
    ph = window(params.a_max)
    ph = advance_phase(params, ph, params.rho, 5.0)
    ph = advance_phase(params, ph, 0.1, 0.0)
    assert ph.kind == HALTED
    assert proper_response_command(params, ph, 0.0) == 0.0
    assert advance_phase(params, ph, 1.0, 0.0).kind == HALTED


def test_many_small_steps_accumulate(params):
    ph = ResponsePhase(RESPONSE_WINDOW)
    for _ in range(30):
        ph = advance_phase(params, ph, 0.01, 10.0)
    assert ph.kind == BRAKING


@pytest.mark.parametrize("dt", [0.0, math.nan, math.inf])
def test_rejects_bad_dt(params, dt):
    # a NaN window clock never reached rho, so the window never ended
    with pytest.raises(StepError, match="finite and > 0"):
        advance_phase(params, ResponsePhase(RESPONSE_WINDOW), dt, 1.0)


def test_full_throttle_window_holds_a_max(params):
    # the worst admissible window behavior: holding a_max
    assert proper_response_command(params, window(params.a_max), 3.0) == params.a_max
