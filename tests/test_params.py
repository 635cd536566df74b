import math

import pytest
from hypothesis import given, strategies as st

from rsskit.core import RssParams, ScenarioState, validate_params
from rsskit.errors import (
    ConfigError,
    DomainError,
    Negative,
    NonFinite,
    NonPositive,
    OrderViolation,
    ParamError,
)


def test_valid_paper_set(params):
    assert params.rho == 0.3
    assert params.vehicle_length == 0.0


def test_rho_must_be_positive():
    with pytest.raises(NonPositive):
        RssParams(0.0, 2.0, 4.0, 8.0)
    with pytest.raises(NonPositive):
        RssParams(-0.1, 2.0, 4.0, 8.0)


def test_brake_min_must_be_positive():
    with pytest.raises(NonPositive):
        RssParams(0.3, 2.0, 0.0, 8.0)


def test_brake_ordering_strict():
    with pytest.raises(OrderViolation):
        RssParams(0.3, 2.0, 8.0, 8.0)
    with pytest.raises(OrderViolation):
        RssParams(0.3, 2.0, 9.0, 8.0)


def test_a_max_and_length_nonnegative():
    with pytest.raises(Negative):
        RssParams(0.3, -1.0, 4.0, 8.0)
    with pytest.raises(Negative):
        RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=-0.5)
    # a_max = 0 is admissible (no-acceleration rear vehicle)
    RssParams(0.3, 0.0, 4.0, 8.0)


def test_validate_params_defaults_length():
    p = validate_params({"rho": 0.3, "a_max": 2, "a_brake_min": 4, "a_brake_max": 8})
    assert p.vehicle_length == 0.0


@pytest.mark.parametrize(
    "raw",
    [
        [],
        {"rho": 0.3},
        {"rho": "x", "a_max": 2, "a_brake_min": 4, "a_brake_max": 8},
        {"rho": float("nan"), "a_max": 2, "a_brake_min": 4, "a_brake_max": 8},
        # float() reads a boolean as 0.0 or 1.0: {"rho": true} was rho 1.0
        {"rho": True, "a_max": 2, "a_brake_min": 4, "a_brake_max": 8},
        {"rho": 0.3, "a_max": False, "a_brake_min": 4, "a_brake_max": 8},
        {"rho": 0.3, "a_max": 2, "a_brake_min": 4, "a_brake_max": 8, "vehicle_length": True},
        # an int too large for a float raised OverflowError
        {"rho": 10 ** 400, "a_max": 2, "a_brake_min": 4, "a_brake_max": 8},
        # a misspelled vehicle_length was ignored: a point vehicle, whose
        # margins came out 4.5 m too generous
        {"rho": 0.3, "a_max": 2, "a_brake_min": 4, "a_brake_max": 8, "vehicle_lenght": 4.5},
        # a numeric string was read as the number it spells
        {"rho": "0.3", "a_max": 2, "a_brake_min": 4, "a_brake_max": 8},
        # an int too long for repr, whose refusal message raised ValueError
        {"rho": 10 ** 5000, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0},
    ],
)
def test_validate_params_rejects_malformed(raw):
    with pytest.raises(ConfigError):
        validate_params(raw)


def test_state_rejects_negative_velocity():
    with pytest.raises(DomainError):
        ScenarioState(10.0, -1.0, 0.0, 5.0)
    with pytest.raises(DomainError):
        ScenarioState(10.0, 1.0, 0.0, -5.0)


@pytest.mark.parametrize("field", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, bad):
    # with a_max = nan the rule gave d_min 0 and accepted any gap
    values = [0.3, 2.0, 4.0, 8.0, 0.0]
    values[field] = bad
    with pytest.raises(NonFinite):
        RssParams(*values)


@pytest.mark.parametrize("field", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("bad", [10 ** 400, True, "a"], ids=["big_int", "bool", "str"])
def test_params_refuse_what_validate_params_refuses(field, bad):
    # 10**400 raised OverflowError, "a" TypeError, and True was stored as True
    values = [0.3, 2.0, 4.0, 8.0, 0.0]
    values[field] = bad
    with pytest.raises(ConfigError, match="is not a finite number"):
        RssParams(*values)


def test_params_store_floats():
    params = RssParams(1, 2, 4, 8, 0)
    assert params == RssParams(1.0, 2.0, 4.0, 8.0)
    assert [type(v) for v in params.to_dict().values()] == [float] * 5


def test_state_rejects_nan_velocity():
    with pytest.raises(DomainError):
        ScenarioState(1.0, 20.0, 0.0, math.nan)
    with pytest.raises(DomainError):
        ScenarioState(1.0, math.nan, 0.0, 20.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x_f", "x_r"])
def test_state_rejects_non_finite_position(field, bad):
    # a NaN gap was reported as an unsafe start (exit 3); an infinite one ran
    values = {"x_f": 40.0, "v_f": 20.0, "x_r": 0.0, "v_r": 20.0, field: bad}
    with pytest.raises(DomainError, match="positions must be finite"):
        ScenarioState(**values)


@pytest.mark.parametrize("field", ["v_f", "v_r"])
def test_state_rejects_infinite_velocity(field):
    values = {"x_f": 40.0, "v_f": 20.0, "x_r": 0.0, "v_r": 20.0, field: math.inf}
    with pytest.raises(DomainError, match="velocities must be finite"):
        ScenarioState(**values)


def test_state_gap():
    assert ScenarioState(40.0, 20.0, 5.0, 20.0).gap == 35.0


@given(
    rho=st.floats(-1.0, 2.0, allow_nan=False),
    a_max=st.floats(-1.0, 5.0, allow_nan=False),
    a_bmin=st.floats(-1.0, 10.0, allow_nan=False),
    a_bmax=st.floats(-1.0, 12.0, allow_nan=False),
)
def test_constructor_accepts_iff_invariants_hold(rho, a_max, a_bmin, a_bmax):
    valid = rho > 0 and a_bmin > 0 and a_bmin < a_bmax and a_max >= 0
    if valid:
        p = RssParams(rho, a_max, a_bmin, a_bmax)
        assert math.isfinite(p.rho)
    else:
        with pytest.raises(ParamError):
            RssParams(rho, a_max, a_bmin, a_bmax)
