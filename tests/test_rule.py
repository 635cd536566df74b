import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsskit.batch import safe_distances
from rsskit.core import RssParams
from rsskit.dynamics import pov_stop_distance, sv_stop_distance
from rsskit.errors import DomainError
from rsskit.rule import (
    evaluate,
    safe_distance,
    safe_distance_raw,
    safe_distance_terms,
)

from conftest import state
from exact import square

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)

speeds = st.floats(0.0, 60.0, allow_nan=False)


def test_reference_value():
    # 6 + 0.09 + 20.6^2/8 - 400/16 = 34.135
    assert safe_distance(PAPER, 20.0, 20.0) == pytest.approx(34.135, abs=1e-9)


def test_reference_value_stationary_front():
    assert safe_distance(PAPER, 10.0, 0.0) == pytest.approx(17.135, abs=1e-9)


def test_stationary_rear_still_needs_room():
    # even a stopped rear vehicle may surge forward during the response window
    assert safe_distance(PAPER, 0.0, 0.0) == pytest.approx(0.135, abs=1e-9)


def test_clamped_at_zero_for_fast_front():
    assert safe_distance_raw(PAPER, 0.0, 40.0) < 0.0
    assert safe_distance(PAPER, 0.0, 40.0) == 0.0


def test_terms_sum_to_raw():
    terms = safe_distance_terms(PAPER, 20.0, 20.0)
    assert terms["raw"] == pytest.approx(
        terms["response_travel"]
        + terms["response_gain"]
        + terms["sv_brake_travel"]
        - terms["pov_brake_travel"]
    )
    assert terms["response_travel"] == pytest.approx(6.0)
    assert terms["response_gain"] == pytest.approx(0.09)
    assert terms["sv_brake_travel"] == pytest.approx(53.045)
    assert terms["pov_brake_travel"] == pytest.approx(25.0)


def test_rejects_negative_velocities():
    with pytest.raises(DomainError):
        safe_distance(PAPER, -1.0, 0.0)
    with pytest.raises(DomainError):
        safe_distance_raw(PAPER, 0.0, -1.0)


@pytest.mark.parametrize("v_r, v_f", [
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, math.inf), (math.inf, math.inf),
])
def test_rejects_non_finite_velocities(v_r, v_f):
    # NaN gave d_min 0, an infinite v_r gave inf and an infinite v_f gave 0
    with pytest.raises(DomainError, match="finite"):
        safe_distance_terms(PAPER, v_r, v_f)
    with pytest.raises(DomainError):
        safe_distance(PAPER, v_r, v_f)


def test_rejects_speeds_whose_terms_overflow():
    # 1e200 ** 2 raised OverflowError; at 1e154 with these braking rates
    # both braking terms were inf, raw inf - inf was NaN and the condition
    # held at a 10 m gap
    with pytest.raises(DomainError, match="overflows"):
        safe_distance(PAPER, 1e200, 0.0)
    with pytest.raises(DomainError, match="overflows"):
        safe_distance(PAPER, 0.0, 1e200)
    weak = RssParams(0.3, 2.0, 0.1, 0.2)
    with pytest.raises(DomainError, match="overflows"):
        evaluate(weak, state(10.0, 1e154, 1e154))


def travels(params, v_r, v_f):
    """The four checked travels of safe_distance_terms, in formula order."""
    terms = safe_distance_terms(params, v_r, v_f)
    return terms["response_travel"], terms["response_gain"], terms["sv_brake_travel"], terms["pov_brake_travel"]


def reference_travel_terms(params, v_r, v_f):
    """The four travels, from squares rounded once from the exact value."""
    v_peak = v_r + params.a_max * params.rho
    return (
        v_r * params.rho,
        0.5 * params.a_max * square(params.rho),
        square(v_peak) / (2.0 * params.a_brake_min),
        square(v_f) / (2.0 * params.a_brake_max),
    )


def test_overflow_check_changes_no_in_range_bit():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        params = RssParams(*rng.uniform([0.01, 0.0, 0.1], [3.0, 10.0, 10.0]),
                           a_brake_max=20.0 + rng.uniform(0.0, 10.0))
        v_r, v_f = 10.0 ** rng.uniform(-3.0, 153.0, size=2)
        assert travels(params, v_r, v_f) == reference_travel_terms(params, v_r, v_f)


def test_the_overflow_edge_is_a_domain_error_in_both_engines():
    # speeds within 0.1 % of sqrt(max float), whose square is inf or just
    # below it, and rho on both sides of it: the scalar rule gives the
    # reference travels or raises DomainError (never OverflowError), and
    # the array rule marks exactly those rows undefined
    rng = np.random.default_rng(19)
    root = math.sqrt(sys.float_info.max)  # 1.3408e154
    near = (root * rng.uniform(0.999, 1.001, 300)).tolist()
    pairs = [(v, 0.0) for v in near] + [(0.0, v) for v in near] + list(zip(near, near[::-1]))
    cases = [(PAPER, pairs), (RssParams(0.3, 2.0, 0.1, 0.2), pairs)]
    for rho in (1.34e154 * rng.uniform(0.999, 1.002, 40)).tolist():
        for a_max in (0.0, 0.01, 2.0):
            cases.append((RssParams(rho, a_max, 4.0, 8.0), [(0.0, 0.0), (1.0, 0.0), (0.0, 1e150)]))
    raised = 0
    for params, speeds in cases:
        v_r, v_f = np.array(speeds).T
        d_min, defined = safe_distances(params, v_r, v_f)
        for j, (a, b) in enumerate(speeds):
            try:
                terms = travels(params, a, b)
            except DomainError:
                raised += 1
                assert not defined[j]
                for f in (lambda: safe_distance(params, a, b), lambda: evaluate(params, state(1e300, a, b))):
                    with pytest.raises(DomainError, match="overflows"):
                        f()
                continue
            assert terms == reference_travel_terms(params, a, b)
            assert defined[j] and d_min[j] == safe_distance(params, a, b)
            assert evaluate(params, state(1e300, a, b)).d_min == d_min[j]
    assert 0 < raised < sum(len(speeds) for _, speeds in cases)


@pytest.mark.parametrize("v_r, v_f", [(10 ** 200, 0), (0, 10 ** 200), (10 ** 400, 0), (0, 10 ** 400)])
def test_int_speeds_whose_square_no_float_holds_are_a_domain_error(v_r, v_f):
    # an int squared by * stays an int, and an int past max float divided
    # by a float raises OverflowError; the rule reads its speeds as floats
    with pytest.raises(DomainError):
        safe_distance(PAPER, v_r, v_f)
    with pytest.raises(DomainError):
        evaluate(PAPER, state(1e300, v_r, v_f))
    assert safe_distance(PAPER, 20, 20) == safe_distance(PAPER, 20.0, 20.0)


@pytest.mark.parametrize("bad", ["a", None, 1j, [1.0], True, False, 10 ** 5000,
                                 np.True_, np.False_, np.array([1.0, 2.0]), np.array(1.0), np.array([1.0])],
                         ids=["str", "None", "complex", "list", "True", "False", "int_5000_digits",
                              "np_True", "np_False", "np_array", "np_0d_array", "np_1_element_array"])
def test_speeds_that_scenario_state_refuses_are_a_domain_error(bad):
    # a non-number raised TypeError from the range check, a bool, numpy's
    # too, read as 0 or 1 m/s, and a 5,000-digit int's message and the
    # truth value of a numpy array raised ValueError; a 0-d array was read
    # as its element, and float() of a one-element one raised TypeError
    entries = [lambda: safe_distance(PAPER, bad, 1.0), lambda: safe_distance(PAPER, 1.0, bad),
               lambda: safe_distance_raw(PAPER, bad, 1.0), lambda: safe_distance_terms(PAPER, 1.0, bad),
               lambda: sv_stop_distance(PAPER, bad), lambda: pov_stop_distance(PAPER, bad)]
    for entry in entries:
        with pytest.raises(DomainError, match="velocities must be finite"):
            entry()
    with pytest.raises(DomainError):
        state(1e300, bad, 1.0)


def test_numpy_and_int_speeds_keep_their_values():
    assert safe_distance(PAPER, np.float64(20.0), np.float64(10.0)) == safe_distance(PAPER, 20.0, 10.0)
    assert safe_distance(PAPER, np.int64(20), 10) == safe_distance(PAPER, 20.0, 10.0)
    assert sv_stop_distance(PAPER, 1) == sv_stop_distance(PAPER, 1.0)
    # numpy's narrower floats are read as floats too, without numpy's
    # "overflow encountered in cast" warning from comparing them to float_info.max
    assert safe_distance(PAPER, np.float32(20.0), np.float16(10.0)) == safe_distance(PAPER, 20.0, 10.0)
    assert safe_distance_terms(PAPER, np.float16(20.0), np.float32(10.0)) == safe_distance_terms(PAPER, 20.0, 10.0)
    assert sv_stop_distance(PAPER, np.float32(1.5)) == sv_stop_distance(PAPER, 1.5)
    # and their infinities are refused without numpy's "invalid value" warning from v - v
    for inf in (np.float64(math.inf), np.float32(math.inf)):
        with pytest.raises(DomainError, match="velocities must be finite"):
            safe_distance(PAPER, inf, 10.0)


@given(v_r=speeds, v_f=speeds)
def test_nonnegative(v_r, v_f):
    assert safe_distance(PAPER, v_r, v_f) >= 0.0


@given(v_r=speeds, v_f=speeds, dv=st.floats(0.01, 10.0))
def test_monotone_in_rear_velocity(v_r, v_f, dv):
    assert safe_distance(PAPER, v_r + dv, v_f) >= safe_distance(PAPER, v_r, v_f)


@given(v_r=speeds, v_f=speeds, dv=st.floats(0.01, 10.0))
def test_antitone_in_front_velocity(v_r, v_f, dv):
    assert safe_distance(PAPER, v_r, v_f + dv) <= safe_distance(PAPER, v_r, v_f)


def test_decomposition_identity():
    """safe_distance == max(0, sv stop travel - pov stop travel), exactly
    the worst-case kinematic reading of the formula."""
    rng = np.random.default_rng(7)
    for v_r, v_f in rng.uniform(0.0, 45.0, size=(500, 2)):
        d = safe_distance(PAPER, v_r, v_f)
        ref = max(0.0, sv_stop_distance(PAPER, v_r) - pov_stop_distance(PAPER, v_f))
        assert d == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_evaluate_margin_and_condition():
    ev = evaluate(PAPER, state(40.0, 20.0, 20.0))
    assert ev.margin == pytest.approx(5.865, abs=1e-9)
    assert ev.condition_holds


def test_boundary_is_unsafe():
    d = safe_distance(PAPER, 20.0, 20.0)
    assert not evaluate(PAPER, state(d, 20.0, 20.0)).condition_holds
    assert evaluate(PAPER, state(d + 1e-9, 20.0, 20.0)).condition_holds


def test_zero_a_max_reduces_to_pure_braking():
    p = RssParams(0.3, 0.0, 4.0, 8.0)
    # v*rho + v^2/(2*4): 20*0.3 + 50 = 56, minus 25
    assert safe_distance(p, 20.0, 20.0) == pytest.approx(31.0)
