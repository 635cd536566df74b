"""Fuzz of the Python API: every constructor in rsskit.__all__, plus
CampaignConfig, a Trajectory of drawn TrajectorySamples, and the three
campaign entry points.

Each field is drawn from unbounded ints, bools, every float (NaN, inf,
subnormals, +-max), numeric strings, None, numpy floats and bools, numpy
int64 and float32, Fractions, and 0-d, one-element and two-element numpy
float arrays, and two times in three from
in-range numbers, so that enough calls get past the first check.  Each
constructor gets its own budget for each of those kinds.
Whatever the values, a call returns a value or raises an RssError, never
another exception, and what it returns encodes through report.report_text
in the role it has in a report: a parameter set as the params, a config as
the config, a state as outcome values and a campaign outcome as the
outcome.  A Trajectory that builds must audit to a report or an RssError,
and the report must encode as rsskit audit --out encodes it.
The campaigns run at most 20 trials, from the paper's parameters
and the default configs with about one field in twelve drawn instead.
"""
import dataclasses
import sys

import numpy as np
from hypothesis import event, given, settings, strategies as st

import rsskit
from rsskit.audit import audit
from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.errors import RssError
from rsskit.report import report_text
from rsskit.supervisor import SupervisorConfig
from rsskit.verify import (
    CampaignConfig, falsify_below_threshold, verify_safety_theorem, verify_supervised_safety,
)

MAX = sys.float_info.max
NOT_INTS = [
    st.booleans(),
    st.floats(),
    st.sampled_from([MAX, -MAX, 5e-324, -5e-324, 2.2e-308, -0.0]),
    st.one_of(st.integers(), st.floats()).map(str),
    st.none(),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    # numbers that are neither int nor float, which a report cannot encode
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.fractions(),
    # arrays of in-range numbers, which get past a check that reads them as one number
    st.floats(0.0, 50.0).map(np.array),
    st.floats(0.0, 50.0).map(lambda x: np.array([x])),
    st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2).map(np.array),
]
KINDS = [st.integers(), *NOT_INTS]
VALUES = st.one_of(KINDS)
PLAIN = st.one_of(st.floats(0.01, 50.0), st.integers(1, 50))
FIELD = st.sampled_from([PLAIN, PLAIN, VALUES]).flatmap(lambda s: s)
# an int drawn for n_trials is at most 20
TRIALS = st.one_of(st.integers(max_value=20), *NOT_INTS)

CONSTRUCTORS = [getattr(rsskit, name) for name in rsskit.__all__
                if isinstance(getattr(rsskit, name), type)] + [CampaignConfig]
PAPER = RssParams(0.3, 2.0, 4.0, 8.0)
# a sample's state and mode are valid two times in three, else any value;
# its time is also drawn as the two other kinds Trajectory accepts, a numpy
# float and an int beyond 2**53, so that both reach the audit and its report
STATE = st.just(ScenarioState(40.0, 20.0, 0.0, 20.0))
MODE = st.sampled_from([AC, BC])
TIME = st.sampled_from([FIELD, FIELD, st.floats(0.01, 50.0).map(np.float64),
                        st.integers(2 ** 53 + 1, 2 ** 1023)]).flatmap(lambda s: s)
SAMPLES = st.lists(st.builds(
    TrajectorySample, TIME, st.sampled_from([STATE, STATE, VALUES]).flatmap(lambda s: s),
    FIELD, st.sampled_from([MODE, MODE, st.one_of(st.text(max_size=2), VALUES)]).flatmap(lambda s: s)),
    min_size=1, max_size=3)
CAMPAIGN = {"seed": 0, "n_trials": 20, "include_grid": False}


def _defaults(cls):
    if dataclasses.is_dataclass(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    return dict(cls._field_defaults)


def _names(cls):
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return cls._fields


@st.composite
def _fields(draw, cls, defaults, drawn, **strategies):
    """Keyword arguments for cls: a field in defaults is drawn about once in
    drawn calls and keeps its value otherwise; every other field is drawn."""
    fields = {}
    for name in _names(cls):
        if name in defaults and draw(st.sampled_from(range(drawn))):
            fields[name] = defaults[name]
        else:
            fields[name] = draw(strategies.get(name, FIELD))
    return fields


def _call(fn, *args, **kwargs):
    """fn's value, or None when it raises an RssError; anything else fails."""
    try:
        return fn(*args, **kwargs)
    except RssError:
        return None


def _encode(value):
    """report_text of value in its report role, for the values that have one."""
    if isinstance(value, RssParams):
        text = report_text("fuzz", value, {}, {})
    elif isinstance(value, (CampaignConfig, SupervisorConfig)):
        text = report_text("fuzz", PAPER, dataclasses.asdict(value), {})
    elif isinstance(value, ScenarioState):
        text = report_text("fuzz", PAPER, {}, {"state": list(value)})
    else:  # a record of results, which rsskit fills and never reads from a user
        return
    assert isinstance(text, str)


def _constructor_fuzz(cls, kind):
    field = st.sampled_from([PLAIN, PLAIN, kind]).flatmap(lambda s: s)

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(_fields(cls, _defaults(cls), 2, **dict.fromkeys(_names(cls), field)))
    def check(fields):
        value = _call(cls, **fields)
        event(f"{cls.__name__} {'refused' if value is None else 'built'}")
        if value is not None:
            _encode(value)

    return check


def test_constructors_return_a_value_or_raise_an_rss_error():
    # a budget per class and value kind, so that every kind reaches every
    # field; one shared budget gave ScenarioState about 80 examples
    for cls in CONSTRUCTORS:
        for kind in KINDS:
            _constructor_fuzz(cls, kind)()


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(SAMPLES)
def test_trajectories_of_drawn_samples_audit_or_raise_an_rss_error(samples):
    traj = _call(Trajectory, samples, PAPER)
    event(f"Trajectory {'refused' if traj is None else 'built'}")
    if traj is not None:
        report = _call(audit, traj)
        if report is not None:  # encoded as rsskit audit --out encodes it
            config = {"trajectory": "t.csv", "accel_tol": 0.2}
            assert isinstance(report_text("audit", PAPER, config, report.to_dict()), str)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(st.sampled_from(["safety", "falsify", "supervised"]),
       _fields(RssParams, dataclasses.asdict(PAPER), 12),
       _fields(SupervisorConfig, _defaults(SupervisorConfig), 12),
       _fields(CampaignConfig, dict(_defaults(CampaignConfig), **CAMPAIGN), 12,
               n_trials=TRIALS))
def test_campaigns_return_an_outcome_or_raise_an_rss_error(kind, params, supervisor, campaign):
    params, sup_cfg, cfg = (_call(cls, **fields) for cls, fields in (
        (RssParams, params), (SupervisorConfig, supervisor), (CampaignConfig, campaign)))
    if None in (params, sup_cfg, cfg):
        event("a config refused")
        return
    if kind == "safety":
        outcome = _call(verify_safety_theorem, params, cfg)
    elif kind == "falsify":
        outcome = _call(falsify_below_threshold, params, cfg)
    else:
        outcome = _call(verify_supervised_safety, params, sup_cfg, cfg)
    event(f"{kind} {'refused' if outcome is None else 'ran'}")
    if outcome is not None:
        assert isinstance(report_text(kind, params, cfg.to_dict(), outcome.to_dict()), str)
