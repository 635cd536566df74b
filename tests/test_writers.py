"""The audit's three output writers produce the bytes of their plain forms.

report's walker visits containers in Python and hands flat ones to the C
JSON encoder, once per container for both the hash and the file; trajio
writes one format string per row.  Each is compared here with the plain
form it replaced, kept in this file as the reference: the output must be
identical, byte for byte, and config_hash must be the sha256 of
canonical_json.
"""
import hashlib
import json
import math
import random
import re

import pytest

from rsskit import __version__
from rsskit.audit import audit
from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.dynamics import gentle_pov, worst_case_pov
from rsskit.report import _walk, canonical_json, dump_report, make_report, report_text
from rsskit.rule import evaluate
from rsskit.supervisor import SupervisorConfig, adversarial_ac, benign_ac, run_supervised
from rsskit.trajio import HEADER, write_metric_csv, write_trajectory

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)
LONG = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=4.5)


def reference_dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fmt(x):
    return f"{x:.9g}"


def reference_write_trajectory(traj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "\n")
        for s in traj.samples:
            st = s.state
            fh.write(",".join(
                [_fmt(s.t), _fmt(st.x_f), _fmt(st.v_f), _fmt(st.x_r), _fmt(st.v_r),
                 _fmt(s.a_r), s.mode]
            ) + "\n")


def reference_write_metric_csv(traj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,margin,gap,v_r,v_f\n")
        for s in traj.samples:
            ev = evaluate(traj.params, s.state)
            fh.write(",".join(
                [_fmt(s.t), _fmt(ev.margin), _fmt(ev.gap),
                 _fmt(s.state.v_r), _fmt(s.state.v_f)]
            ) + "\n")


# --- dump_report -----------------------------------------------------------

_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-7, 1e21, 1e300, 5e-324,
           0.1, -2.5, 1.0, 123456789.123]
_STRINGS = ["", "a", 'say "hi"', "line\nbreak", "},", ": ", "}, {", "},\n  {",
            '"}', "ü€𝄞", "tab\tback\\slash", "\x00\x1f", "generated_at"]


def _scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(_FLOATS)
    if kind == 1:
        return rng.uniform(-1e3, 1e3)
    if kind == 2:
        return rng.choice([0, -1, 7, 2**63, -(10**30), rng.randint(-10**6, 10**6)])
    if kind == 3:
        return rng.choice([True, False, None])
    return rng.choice(_STRINGS) + rng.choice(["", str(rng.randrange(100))])


def _keys(rng, n):
    if rng.random() < 0.1:
        # numeric keys: json coerces them to strings after sorting
        return [rng.choice([rng.randint(-5, 5), rng.uniform(-5, 5), True, False])
                for _ in range(n)]
    return [rng.choice(_STRINGS) + str(rng.randrange(20)) for _ in range(n)]


def _flat_dict(rng):
    return {k: _scalar(rng) for k in _keys(rng, rng.randrange(1, 5))}


def _value(rng, depth):
    if depth >= 4 or rng.random() < 0.35:
        return _scalar(rng)
    kind = rng.randrange(5)
    n = rng.randrange(0, 5)
    if kind == 0:
        return {k: _value(rng, depth + 1) for k in _keys(rng, n)}
    if kind == 1:
        return [_value(rng, depth + 1) for _ in range(n)]
    if kind == 2:
        return tuple(_value(rng, depth + 1) for _ in range(n))
    if kind == 3:
        return [_flat_dict(rng) for _ in range(n + 1)]
    # rows broken by an empty dict, a nested value or a list
    rows = [_flat_dict(rng) for _ in range(n + 1)]
    rows.insert(rng.randrange(len(rows) + 1),
                rng.choice([{}, {"k": [1, 2]}, {"k": {}}, [1], ()]))
    return rows


def _payloads():
    rng = random.Random(20261018)
    for _ in range(10_000):
        yield _value(rng, 0) if rng.random() < 0.2 else {
            k: _value(rng, 1) for k in _keys(rng, rng.randrange(0, 6))
        }


def check_walk(obj):
    """_walk's texts are canonical_json's and the indented json.dumps, or it
    raises what canonical_json raises."""
    try:
        want = canonical_json(obj), json.dumps(obj, sort_keys=True, indent=2)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            _walk(obj, 0)
        return
    assert _walk(obj, 0) == want, repr(obj)


def test_dump_report_matches_json_dumps_on_random_payloads():
    for obj in _payloads():
        assert dump_report(obj) == reference_dump(obj), repr(obj)
        check_walk(obj)


def check_sealed(params, config, outcome):
    """make_report's hash and report_text's file equal the plain forms, or
    all three raise the same error."""
    body = {"kind": "audit", "tool_version": __version__, "params": params.to_dict(),
            "config": config, "outcome": outcome}
    try:
        want = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    except (ValueError, TypeError) as exc:
        for fn in (make_report, report_text):
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                fn("audit", params, config, outcome)
        return type(exc)
    assert make_report("audit", params, config, outcome)["config_hash"] == want
    text = report_text("audit", params, config, outcome)
    stamp = json.loads(text)["generated_at"]
    assert text == reference_dump(dict(body, config_hash=want, generated_at=stamp))
    return None


def test_one_walk_gives_the_plain_hash_and_file_on_random_payloads():
    rng = random.Random(5)
    raised = set()
    for i, obj in enumerate(_payloads()):
        if i % 4 == 0:  # the walk costs three encodings here; a quarter suffices
            config = _value(rng, 1) if rng.random() < 0.3 else {"accel_tol": 0.2}
            raised.add(check_sealed(rng.choice([PAPER, LONG]), config, obj))
    assert raised == {None, ValueError}
    # keys that cannot be sorted, or that json cannot take
    for outcome in ({None: [1], 1: [2]}, {"a": {(1, 2): [3]}}, {"a": [{"b": {1, 2}}]}):
        assert check_sealed(PAPER, {}, outcome) is TypeError


@pytest.mark.parametrize(
    "obj",
    [
        {}, [], (), 0, -0.0, math.nan, "x\ny", None,
        {"a": {}, "b": [], "c": ()},
        [{}], [{}, {}], [[]], [[{}]],
        [{"a": 1}], [{"a": 1}, {"b": 2}], ({"a": 1}, {"b": (1, 2)}),
        {"rows": [{"s": "},\n    {", "t": 0.5}, {"s": '"}, {"', "t": -0.0}]},
        {1: {"a": 1}, 2: [1]}, {None: [1]}, {True: {}, 0.5: [[]]},
        {"x": [1, [2, [3, {"y": (4, {"z": [math.inf, -math.inf]})}]]]},
    ],
)
def test_dump_report_edge_cases(obj):
    assert dump_report(obj) == reference_dump(obj)
    check_walk(obj)


def test_dump_report_rejects_what_json_dumps_rejects():
    for bad in ({"a": object()}, {(1, 2): [1]}, {"a": [{"b": {1, 2}}]}, {1: [1], "a": [2]}):
        with pytest.raises(TypeError):
            reference_dump(bad)
        with pytest.raises(TypeError):
            dump_report(bad)
        check_walk(bad)


def _trajectories():
    runs = []
    for params in (PAPER, LONG):
        start = ScenarioState(45.0 + params.vehicle_length, 20.0, 0.0, 20.0)
        for ac, pov, supervised in (
            (benign_ac(params), gentle_pov(params), True),
            (adversarial_ac(params), worst_case_pov(params), True),
            (adversarial_ac(params), worst_case_pov(params), False),
        ):
            trace = run_supervised(params, SupervisorConfig(), start, ac, pov,
                                   dt=0.01, supervised=supervised)
            runs.append(trace.to_trajectory())
    return runs


TRAJECTORIES = _trajectories()


@pytest.mark.parametrize("i", range(len(TRAJECTORIES)))
def test_dump_report_matches_json_dumps_on_audit_reports(i):
    traj = TRAJECTORIES[i]
    report = make_report("audit", traj.params, {"trajectory": "t.csv", "accel_tol": 0.05},
                         audit(traj).to_dict())
    assert dump_report(report) == reference_dump(report)
    check_walk(report)


# mode strings that would fool a textual replace of the separators, if the
# walker's separators could occur inside an encoded string
_FOOLS = ['","t":', "},{", '":', "x,", '\\"', '\\', '"', "},\n{", ":\n", ",\n", '": ',
          '"},\n  {', "\\n", "{", "}", "[", "]"]


@pytest.mark.parametrize("i", range(len(TRAJECTORIES)))
def test_walk_is_not_fooled_by_mode_strings_numeric_keys_or_nan(i):
    traj = TRAJECTORIES[i]
    outcome = audit(traj).to_dict()
    rng = random.Random(i)
    for row in outcome["per_sample"]:
        row["mode"] = rng.choice(_FOOLS) + rng.choice(["", ",", "x"])
    outcome["violations"].append({"t_start": 0.0, "t_end": 1.0, "reason": _FOOLS[0]})
    outcome["numeric"] = {1: {"a": [1, 2]}, 2.5: [{"b": 1}, {3: "c"}], -1: {}, False: [[]]}
    config = {"trajectory": '"},\n{".csv', "accel_tol": 0.2}
    report = make_report("audit", traj.params, config, outcome)
    assert dump_report(report) == reference_dump(report)
    check_walk(report)
    assert check_sealed(traj.params, config, outcome) is None
    # NaN: the hash refuses it as canonical_json does; the file takes it
    outcome["per_sample"][len(outcome["per_sample"]) // 2]["margin"] = math.nan
    assert check_sealed(traj.params, config, outcome) is ValueError
    report["outcome"] = outcome
    assert dump_report(report) == reference_dump(report)
    check_walk(report)  # raises as canonical_json does


# --- trajectory and metric CSVs --------------------------------------------

_ODD = [0.0, -0.0, 1e-7, 1e21, 1.5e-5, 123456789012.0, 1234567890.5, 0.1 + 0.2,
        9.99999999e22, 5e-324]


def _random_traj(rng, params):
    pick = lambda lo, hi: rng.choice(_ODD) if rng.random() < 0.3 else rng.uniform(lo, hi)
    times = sorted({pick(-3, 100) for _ in range(rng.randrange(1, 30))})
    samples = []
    for t in times:
        v_f, v_r = abs(pick(0, 40)), abs(pick(0, 40))
        x_r = pick(-1e3, 1e3) * rng.choice([1, -1])
        x_f = x_r + pick(-5, 200)
        a_r = rng.choice([rng.randint(-8, 2), pick(-8, 2), -0.0, 1e21, 1e-7])
        samples.append(TrajectorySample(t, ScenarioState(x_f, v_f, x_r, v_r), a_r,
                                        rng.choice((AC, BC))))
    return Trajectory(tuple(samples), params)


@pytest.mark.parametrize("write,reference", [
    (write_trajectory, reference_write_trajectory),
    (write_metric_csv, reference_write_metric_csv),
])
def test_csv_writers_match_reference(write, reference, tmp_path):
    rng = random.Random(7)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    trajs = TRAJECTORIES + [_random_traj(rng, rng.choice([PAPER, LONG]))
                            for _ in range(300)]
    for traj in trajs:
        write(traj, new)
        reference(traj, old)
        assert new.read_bytes() == old.read_bytes()
