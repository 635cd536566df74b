"""Contract of the per-step and per-sample value types.

ScenarioState, TrajectorySample, SafetyEvaluation and ResponsePhase are
named tuples: immutable, hashable, printed like the frozen dataclasses
they replaced, and validated on every construction route.  Being tuples,
they also compare equal to plain tuples holding the same values.
"""
import copy
import math
import pickle

import numpy as np
import pytest

from rsskit.core import AC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.errors import DomainError, EmptyTrajectory
from rsskit.response import BRAKING, ResponsePhase
from rsskit.rule import SafetyEvaluation

STATE = ScenarioState(40.0, 20.0, 0.0, 15.0)

# (fields, message) for each state ScenarioState rejects; the messages are
# those of the dataclass it replaced
BAD_STATES = [
    ((0.0, -1.0, 0.0, 0.0), "velocities must be finite and >= 0, got v_f=-1.0, v_r=0.0"),
    ((0.0, 1.0, 0.0, -5.0), "velocities must be finite and >= 0, got v_f=1.0, v_r=-5.0"),
    ((0.0, 1.0, 0.0, math.nan), "velocities must be finite and >= 0, got v_f=1.0, v_r=nan"),
    ((0.0, math.inf, 0.0, 1.0), "velocities must be finite and >= 0, got v_f=inf, v_r=1.0"),
    ((math.nan, 1.0, 0.0, 1.0), "positions must be finite, got x_f=nan, x_r=0.0"),
    ((0.0, 1.0, -math.inf, 1.0), "positions must be finite, got x_f=0.0, x_r=-inf"),
]
NAMES = ("x_f", "v_f", "x_r", "v_r")


def _routes(values):
    good = ScenarioState(1.0, 1.0, 0.0, 1.0)
    return {
        "positional": lambda: ScenarioState(*values),
        "keyword": lambda: ScenarioState(**dict(zip(NAMES, values))),
        "_make": lambda: ScenarioState._make(values),
        "_make_iterator": lambda: ScenarioState._make(iter(values)),
        "_replace": lambda: good._replace(**dict(zip(NAMES, values))),
    }


@pytest.mark.parametrize(
    "values, message", BAD_STATES,
    ids=["neg_v_f", "neg_v_r", "nan_v_r", "inf_v_f", "nan_x_f", "inf_x_r"],
)
@pytest.mark.parametrize(
    "route", ["positional", "keyword", "_make", "_make_iterator", "_replace"]
)
def test_every_route_rejects_bad_states(values, message, route):
    with pytest.raises(DomainError) as exc:
        _routes(values)[route]()
    assert str(exc.value) == message


# a bool, numpy's too, an int that no float holds, or a value that is no
# number; their comparisons with inf accepted the first two and raised
# TypeError on the rest, and numpy's ValueError on an array of two or more
# elements, while a 0-d or one-element array passed them
BAD_TYPES = [
    (True, 20.0, 0.0, 20.0), (40.0, 20.0, 0.0, False), (10 ** 400, 20.0, 0.0, 20.0),
    (40.0, 20.0, -10 ** 5000, 20.0), ("a", 20.0, 0.0, 20.0), (40.0, None, 0.0, 20.0),
    (40.0, 20.0, 0.0, 1j), (40.0, "20", 0.0, 20.0),
    (40.0, np.True_, 0.0, 20.0), (np.False_, 20.0, 0.0, 20.0),
    (40.0, 20.0, 0.0, np.array([1.0, 2.0])), (40.0, 20.0, np.array([0.0, 1.0]), 20.0),
    (40.0, np.array(20.0), 0.0, 20.0), (40.0, 20.0, 0.0, np.array([20.0])), (np.array([40.0]), 20.0, 0.0, 20.0),
]


@pytest.mark.parametrize(
    "values", BAD_TYPES,
    ids=["bool_x_f", "bool_v_r", "big_x_f", "big_x_r", "str_x_f", "none_v_f", "complex_v_r", "str_v_f",
         "np_bool_v_f", "np_bool_x_f", "np_array_v_r", "np_array_x_r",
         "np_0d_array_v_f", "np_1_element_array_v_r", "np_1_element_array_x_f"],
)
@pytest.mark.parametrize(
    "route", ["positional", "keyword", "_make", "_make_iterator", "_replace"]
)
def test_every_route_rejects_values_that_are_no_float(values, route):
    with pytest.raises(DomainError, match="positions and velocities must be numbers a float holds, not booleans"):
        _routes(values)[route]()


def test_ints_a_float_holds_are_kept_as_given():
    state = ScenarioState(40, 20, 0, 15)
    assert state == STATE and repr(state) == "ScenarioState(x_f=40, v_f=20, x_r=0, v_r=15)"
    assert ScenarioState(2 ** 1000, 0, 0, 0).x_f == 2 ** 1000


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_replace_of_one_velocity_is_checked(bad):
    # the named-tuple _replace calls tuple.__new__ unless _make is overridden
    with pytest.raises(DomainError):
        STATE._replace(v_r=bad)


def test_valid_routes_agree():
    values = (40.0, 20.0, 0.0, 15.0)
    built = [route() for route in _routes(values).values()]
    assert all(type(s) is ScenarioState and s == STATE for s in built)
    assert STATE._replace(v_r=3.0) == ScenarioState(40.0, 20.0, 0.0, 3.0)
    assert STATE.gap == 40.0


def test_wrong_field_count_is_rejected():
    with pytest.raises(TypeError):
        ScenarioState._make((1.0, 1.0, 0.0))
    with pytest.raises(TypeError):
        ScenarioState(1.0, 1.0, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("samples", [0, None, "12", 1.5, (STATE,), [None], {}],
                         ids=["int", "none", "str", "float", "state", "list_of_none", "dict"])
def test_trajectory_refuses_samples_that_are_not_trajectory_samples(samples):
    # found by tests/test_api_fuzz.py: Trajectory(0, ...) raised TypeError
    # from tuple(), and Trajectory("12", ...) AttributeError from "1".t
    with pytest.raises(DomainError, match="tuple or list of TrajectorySamples"):
        Trajectory(samples, RssParams(0.3, 2.0, 4.0, 8.0))


@pytest.mark.parametrize("samples", [(), []], ids=["tuple", "list"])
def test_trajectory_refuses_no_samples(samples):
    with pytest.raises(EmptyTrajectory, match="at least one sample"):
        Trajectory(samples, RssParams(0.3, 2.0, 4.0, 8.0))


@pytest.mark.parametrize("fields", [
    (None, STATE, 0.0), (math.nan, STATE, 0.0), (True, STATE, 0.0), (0.0, None, 0.0),
    (0.0, tuple(STATE), 0.0), (0.0, STATE, "x"), (0.0, STATE, math.inf), (0.0, STATE, 10 ** 400),
    (0.0, STATE, 0.0, "Q"), (0.0, STATE, 0.0, None),
], ids=["t_none", "t_nan", "t_bool", "state_none", "state_tuple", "a_r_str", "a_r_inf",
        "a_r_big_int", "mode_q", "mode_none"])
def test_trajectory_refuses_samples_with_bad_fields(fields):
    # a None time raised TypeError from the timestamp check, a None state
    # was accepted and audit raised AttributeError, and a mode "Q" with
    # a_r "x" audited as compliant
    bad = TrajectorySample(*fields)
    for samples in ((bad,), (TrajectorySample(-1.0, STATE, 0.0), bad)):
        with pytest.raises(DomainError, match=f"sample {len(samples) - 1} needs finite numbers"):
            Trajectory(samples, RssParams(0.3, 2.0, 4.0, 8.0))


def test_pickle_and_copy_keep_the_type_and_value():
    for clone in (pickle.loads(pickle.dumps(STATE)), copy.copy(STATE), copy.deepcopy(STATE)):
        assert type(clone) is ScenarioState and clone == STATE


VALUES = [
    STATE,
    TrajectorySample(0.5, STATE, 2.0, "BC"),
    SafetyEvaluation(d_min=34.1, gap=40.0, margin=5.9, condition_holds=True),
    ResponsePhase(BRAKING, 0.3),
]
# each differs from its VALUES entry in the last field
OTHERS = [
    ScenarioState(40.0, 20.0, 0.0, 16.0),
    TrajectorySample(0.5, STATE, 2.0, "AC"),
    SafetyEvaluation(d_min=34.1, gap=40.0, margin=5.9, condition_holds=False),
    ResponsePhase(BRAKING, 0.3, 2.0),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        value.extra = 1.0  # no instance __dict__ either


def test_repr_matches_the_dataclass_form():
    assert repr(STATE) == "ScenarioState(x_f=40.0, v_f=20.0, x_r=0.0, v_r=15.0)"
    assert repr(VALUES[1]) == (
        "TrajectorySample(t=0.5, state=ScenarioState(x_f=40.0, v_f=20.0, x_r=0.0, "
        "v_r=15.0), a_r=2.0, mode='BC')"
    )
    assert repr(VALUES[2]) == (
        "SafetyEvaluation(d_min=34.1, gap=40.0, margin=5.9, condition_holds=True)"
    )
    assert repr(VALUES[3]) == "ResponsePhase(kind='braking', elapsed=0.3, command=0.0)"


@pytest.mark.parametrize("value, other", zip(VALUES, OTHERS), ids=lambda v: type(v).__name__)
def test_equality_and_hash_within_a_type(value, other):
    twin = type(value)._make(tuple(value))
    assert twin == value and hash(twin) == hash(value)
    assert len({value, twin, other}) == 2
    assert other != value
    # tuple semantics: equal to a plain tuple of the same values
    assert value == tuple(value) and hash(value) == hash(tuple(value))


def test_defaults():
    assert TrajectorySample(0.0, STATE, 1.0).mode == AC
    assert ResponsePhase(BRAKING).elapsed == 0.0
    assert ResponsePhase(BRAKING).command == 0.0
    assert TrajectorySample._field_defaults == {"mode": AC}
    assert ResponsePhase._field_defaults == {"elapsed": 0.0, "command": 0.0}


def test_field_order():
    assert ScenarioState._fields == NAMES
    assert TrajectorySample._fields == ("t", "state", "a_r", "mode")
    assert SafetyEvaluation._fields == ("d_min", "gap", "margin", "condition_holds")
    assert ResponsePhase._fields == ("kind", "elapsed", "command")
