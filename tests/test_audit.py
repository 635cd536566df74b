"""Golden-trajectory tests for the offline auditor.

The fixtures are hand-constructed sample sequences; states need not be
kinematically exact because the auditor judges recorded data, not a
simulator.
"""
import importlib
import math
from pathlib import Path

import pytest

from rsskit.audit import (
    INCONSISTENT,
    LIABILITY_NONE,
    POV_OUTSIDE_MODEL,
    REASON_NO_RESPONSE,
    REASON_UNSAFE_START,
    REASON_WEAK_BRAKING,
    SATISFIED,
    NOT_APPLICABLE,
    SV_LIABLE,
    VIOLATED,
    attribute_liability,
    audit,
    check_compliance,
    find_collision_index,
    safety_metric,
)
from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.dynamics import worst_case_pov
from rsskit.errors import ConfigError, NoCollision
from rsskit.rule import safe_distance
from rsskit.supervisor import SupervisorConfig, adversarial_ac, run_supervised
from rsskit.trajio import read_trajectory, write_trajectory

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)


def traj(rows):
    """rows: (t, gap, v_r, v_f, a_r, mode) with the rear vehicle pinned at 0."""
    return Trajectory(
        tuple(
            TrajectorySample(t, ScenarioState(gap, v_f, 0.0, v_r), a_r, mode)
            for t, gap, v_r, v_f, a_r, mode in rows
        ),
        PAPER,
    )


def moving_traj(rows):
    """rows: (t, x_r, v_r, x_f, v_f, a_r, mode) with explicit positions."""
    return Trajectory(
        tuple(
            TrajectorySample(t, ScenarioState(x_f, v_f, x_r, v_r), a_r, mode)
            for t, x_r, v_r, x_f, v_f, a_r, mode in rows
        ),
        PAPER,
    )


GOLDEN_COMPLIANT = traj(
    [(0.1 * i, 40.0, 20.0, 20.0, 0.0, AC) for i in range(6)]
)

# condition false (gap 30 < 34.135) and no response running
GOLDEN_NO_RESPONSE = traj(
    [(0.0, 40.0, 20.0, 20.0, 0.0, AC)]
    + [(0.1 * i, 30.0, 20.0, 20.0, 0.0, AC) for i in range(1, 5)]
)

# a response episode whose first sample already violated the condition
GOLDEN_UNSAFE_START = traj(
    [(0.1 * i, 30.0, 20.0, 20.0, -4.0, BC) for i in range(5)]
)

# episode starts safe, but past the response window the braking is too weak
GOLDEN_WEAK_BRAKING = traj(
    [
        (0.0, 40.0, 20.0, 20.0, 2.0, BC),
        (0.2, 35.0, 20.0, 20.0, 2.0, BC),
        (0.4, 33.0, 20.0, 20.0, -1.0, BC),   # still inside rho + time_tol
        (0.6, 31.0, 20.0, 20.0, -1.0, BC),   # window over; -1 is not braking
        (0.8, 29.0, 20.0, 20.0, -1.0, BC),
    ]
)


def test_golden_compliant():
    compliant, violations = check_compliance(GOLDEN_COMPLIANT)
    assert compliant
    assert violations == []


def test_golden_no_response():
    compliant, violations = check_compliance(GOLDEN_NO_RESPONSE)
    assert not compliant
    assert len(violations) == 1
    v = violations[0]
    assert v.reason == REASON_NO_RESPONSE
    assert v.t_start == pytest.approx(0.1)
    assert v.t_end == pytest.approx(0.4)


def test_golden_unsafe_start():
    compliant, violations = check_compliance(GOLDEN_UNSAFE_START)
    assert not compliant
    assert {v.reason for v in violations} == {REASON_UNSAFE_START}


def test_golden_weak_braking():
    compliant, violations = check_compliance(GOLDEN_WEAK_BRAKING)
    assert not compliant
    assert [v.reason for v in violations] == [REASON_WEAK_BRAKING]
    assert violations[0].t_start == pytest.approx(0.6)


def test_valid_episode_bridges_condition_violation():
    # proper response started from a safe state: later condition-false
    # samples are compliant while braking hard enough
    rows = [
        (0.0, 40.0, 20.0, 20.0, 2.0, BC),
        (0.2, 36.0, 20.0, 18.0, 2.0, BC),
        (0.4, 33.0, 19.6, 16.4, -4.0, BC),
        (0.6, 31.0, 18.8, 14.8, -4.0, BC),
    ]
    compliant, violations = check_compliance(traj(rows))
    assert compliant, violations


def test_metric_score():
    timeline, score = safety_metric(GOLDEN_COMPLIANT)
    assert score == pytest.approx(5.865, abs=1e-9)
    assert all(m == pytest.approx(5.865, abs=1e-9) for _, m in timeline)


def test_metric_negative_on_violation():
    _, score = safety_metric(GOLDEN_NO_RESPONSE)
    assert score == pytest.approx(30.0 - 34.135, abs=1e-9)


# --- liability -------------------------------------------------------------

# SV closes on an in-model front vehicle without responding
LIAB_SV = moving_traj(
    [
        (0.0, 0.0, 25.0, 30.0, 20.0, 0.0, AC),
        (0.5, 12.5, 25.0, 40.0, 20.0, 0.0, AC),
        (1.0, 25.0, 25.0, 50.0, 20.0, 0.0, AC),
        (2.0, 50.0, 25.0, 70.0, 20.0, 0.0, AC),
        (4.0, 100.0, 25.0, 100.0, 20.0, 0.0, AC),  # gap 0: collision
    ]
)

# front vehicle decelerates far beyond the model limit (11 m/s^2)
LIAB_POV = moving_traj(
    [
        (0.0, 0.0, 20.0, 25.0, 20.0, 0.0, AC),
        (0.1, 2.0, 20.0, 26.9, 18.9, 0.0, AC),
        (0.2, 4.0, 20.0, 28.7, 17.8, 0.0, AC),
        (0.3, 6.0, 20.0, 30.3, 16.7, 0.0, AC),
        (0.4, 8.0, 20.0, 31.9, 15.6, 0.0, AC),
        (0.5, 10.0, 20.0, 10.0, 14.5, 0.0, AC),  # gap 0: collision
    ]
)

# compliant prefix followed by an in-model collision: contradicts the
# safety guarantee, so the auditor must flag the record itself
LIAB_INCONSISTENT = moving_traj(
    [
        (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, AC),
        (0.5, 0.0, 0.0, 1.0, 0.0, 0.0, AC),
        (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, AC),  # gap 0: collision
    ]
)


def test_liability_sv():
    assert attribute_liability(LIAB_SV) == SV_LIABLE


def test_liability_pov_outside_model():
    assert attribute_liability(LIAB_POV) == POV_OUTSIDE_MODEL


def test_liability_inconsistent():
    assert attribute_liability(LIAB_INCONSISTENT) == INCONSISTENT


def read_back(record, tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory(record, path)
    return read_trajectory(path, record.params)


def test_collision_found_after_9_digit_rounding(tmp_path):
    # an unsupervised run ended touching (gap 1e-9 m); written as
    # 119.603215 and 119.603214, the gap read back as 1.0000000117e-06 m,
    # above the old absolute 1e-6 m, and the audit reported liability None
    x_f, x_r = 119.60321450021304, 119.60321449921305
    record = moving_traj([
        (0.0, 100.0, 20.0, 110.0, 0.0, 2.0, AC),
        (1.0, x_r, 20.0, x_f, 0.0, 2.0, AC),
    ])
    back = read_back(record, tmp_path)
    assert back.samples[-1].state.gap > 1e-6
    assert find_collision_index(record) == find_collision_index(back) == 1
    assert audit(back).liability == SV_LIABLE


def test_collision_found_beyond_1000_m(tmp_path):
    # 9 significant digits leave 1e-5 m here: a touching pair that
    # straddles a rounding boundary reads back 1e-5 m apart
    edge = 1234.567895
    record = moving_traj([
        (0.0, 1200.0, 20.0, 1230.0, 0.0, 2.0, AC),
        (1.0, edge - 2e-10, 20.0, edge + 3e-10, 0.0, 2.0, AC),
    ])
    back = read_back(record, tmp_path)
    assert back.samples[-1].state.gap == pytest.approx(1e-5, rel=1e-6)
    assert find_collision_index(record) == find_collision_index(back) == 1
    assert audit(back).liability == SV_LIABLE
    # a gap of a few rounding units there is no collision
    apart = moving_traj([(0.0, 1200.0, 20.0, 1200.0 + 3e-5, 0.0, 2.0, AC)])
    assert find_collision_index(apart) is None


def test_liability_requires_collision():
    with pytest.raises(NoCollision):
        attribute_liability(GOLDEN_COMPLIANT)


def test_principles():
    rep = audit(GOLDEN_COMPLIANT).principles
    assert rep == {1: SATISFIED, 2: NOT_APPLICABLE, 3: NOT_APPLICABLE,
                   4: NOT_APPLICABLE, 5: SATISFIED}
    rep = audit(LIAB_SV).principles
    assert rep[1] == VIOLATED and rep[5] == VIOLATED
    # a collision caused by an out-of-model front vehicle is not our fault
    rep = audit(LIAB_POV).principles
    assert rep[1] == SATISFIED


def test_audit_report_assembly():
    rep = audit(GOLDEN_COMPLIANT)
    assert rep.compliant
    assert rep.liability == LIABILITY_NONE
    assert rep.metric_score == pytest.approx(5.865, abs=1e-9)
    d = rep.to_dict()
    assert d["compliant"] is True
    assert len(d["per_sample"]) == len(GOLDEN_COMPLIANT)

    rep = audit(LIAB_SV)
    assert not rep.compliant
    assert rep.liability == SV_LIABLE


def test_compliance_monotone_under_prefix():
    # a compliant trajectory has compliant prefixes
    for n in range(1, len(GOLDEN_COMPLIANT) + 1):
        ok, _ = check_compliance(GOLDEN_COMPLIANT.prefix(n))
        assert ok


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -5.0])
def test_bad_accel_tol_is_rejected(tol):
    # -5 turned a compliant record into InsufficientBraking; NaN and inf
    # reached the report hash and raised ValueError there
    for fn, record in ((check_compliance, GOLDEN_COMPLIANT), (audit, GOLDEN_COMPLIANT),
                       (attribute_liability, LIAB_SV), (attribute_liability, LIAB_POV)):
        with pytest.raises(ConfigError, match="accel_tol"):
            fn(record, accel_tol=tol)


def _adversarial_run_at_dt_005():
    start = ScenarioState(safe_distance(PAPER, 25.0, 20.0) + 2.0, 20.0, 0.0, 25.0)
    return run_supervised(PAPER, SupervisorConfig(), start, adversarial_ac(PAPER),
                          worst_case_pov(PAPER), dt=0.05).to_trajectory()


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_bad_time_tol_is_rejected(tol):
    # NaN and -1 turned this compliant supervised run into 9
    # InsufficientBraking violations; inf never flagged weak braking
    record = _adversarial_run_at_dt_005()
    for fn, arg in ((check_compliance, record), (audit, record),
                    (attribute_liability, LIAB_SV), (attribute_liability, LIAB_POV)):
        with pytest.raises(ConfigError, match="time_tol"):
            fn(arg, time_tol=tol)


@pytest.mark.parametrize("tol", [None, 0.0, 0.05])
def test_finite_time_tol_is_accepted(tol):
    record = _adversarial_run_at_dt_005()
    assert check_compliance(record, time_tol=tol) == (True, [])
    assert audit(record, time_tol=tol).compliant
    assert attribute_liability(LIAB_SV, time_tol=tol) == SV_LIABLE


def test_zero_accel_tol_is_accepted():
    assert check_compliance(GOLDEN_COMPLIANT, accel_tol=0.0)[0]
    assert audit(LIAB_SV, accel_tol=0.0).liability == SV_LIABLE


def test_audit_attributes_liability_once(monkeypatch):
    # rsskit.audit is also the name of the audit function
    module = importlib.import_module("rsskit.audit")
    calls = []
    scans = []
    original = module.attribute_liability
    original_scan = module.find_collision_index

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    def counting_scan(*args, **kwargs):
        scans.append(args[0])
        return original_scan(*args, **kwargs)

    monkeypatch.setattr(module, "attribute_liability", counting)
    monkeypatch.setattr(module, "find_collision_index", counting_scan)
    for record in (GOLDEN_COMPLIANT, LIAB_SV, LIAB_POV, LIAB_INCONSISTENT):
        calls.clear()
        scans.clear()
        rep = audit(record)
        # one attribution and one collision scan, with or without a collision
        assert len(calls) == 1
        assert len(scans) == 1
        assert (rep.liability == LIABILITY_NONE) == (record is GOLDEN_COMPLIANT)
        # the report's principles follow from its one liability verdict
        verdict = VIOLATED if rep.liability == SV_LIABLE else SATISFIED
        assert rep.principles == {1: verdict, 2: NOT_APPLICABLE, 3: NOT_APPLICABLE,
                                  4: NOT_APPLICABLE, 5: verdict}


def test_package_audit_name_is_the_function_and_the_module_stays_reachable():
    import rsskit
    from rsskit import audit as audit_name

    module = importlib.import_module("rsskit.audit")
    assert audit_name is rsskit.audit is module.audit
    assert callable(module.check_compliance) and callable(module.attribute_liability)
    route = 'importlib.import_module("rsskit.audit")'
    assert route in rsskit.__doc__
    assert route in (Path(__file__).resolve().parents[1] / "README.md").read_text()
