"""Every function the benchmark's tracer wraps exists in rsskit.

bench/tracer.py wraps rsskit.<layer>.<fn> by name, so renaming or
deleting one of them breaks every traced benchmark run.  The tracer's
LAYERS table is read here, not edited, so the test suite catches that.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(layer, fn) for layer, fns in tracer.LAYERS.items() for fn in fns]
    missing = [f"rsskit.{layer}.{fn}" for layer, fn in names
               if not callable(getattr(importlib.import_module(f"rsskit.{layer}"), fn, None))]
    assert names and not missing


def test_falsification_runs_the_traced_gap_kernel_once_a_trial(monkeypatch):
    """The closed_form seams that bench/test_bench.py relies on: the
    falsification calls verify.worst_case_gap_analysis once per trial, and
    dynamics.analyze_gap runs inside each call (its traced calls must stay
    above 0), so a survivor injected at that seam fails the trial.  The
    benchmark-only change in ROADMAP.md that re-points those assertions
    re-points this test with them."""
    from rsskit import dynamics, verify
    from rsskit.core import RssParams

    calls, inside = {"worst_case": 0, "analyze_gap": 0, "nested": 0}, [0]
    worst_case, analyze_gap = verify.worst_case_gap_analysis, dynamics.analyze_gap

    def counted_worst_case(params, start):
        calls["worst_case"] += 1
        inside[0] += 1
        try:
            return worst_case(params, start)
        finally:
            inside[0] -= 1

    def counted_analyze_gap(*args):
        calls["analyze_gap"] += 1
        calls["nested"] += inside[0] > 0
        return analyze_gap(*args)

    monkeypatch.setattr(verify, "worst_case_gap_analysis", counted_worst_case)
    monkeypatch.setattr(dynamics, "analyze_gap", counted_analyze_gap)
    params = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=4.5)
    out = verify.falsify_below_threshold(params, verify.CampaignConfig(seed=7, n_trials=300))
    assert out.ok and out.trials_run > 300
    assert calls == dict.fromkeys(calls, out.trials_run)

    monkeypatch.setattr(verify, "worst_case_gap_analysis", lambda p, s: (None,) + worst_case(p, s)[1:])
    cfg = verify.CampaignConfig(seed=7, n_trials=300, include_grid=False)
    assert len(verify.falsify_below_threshold(params, cfg).counterexamples) == 300
