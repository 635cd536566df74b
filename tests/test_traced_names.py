"""Every function the benchmark's tracer wraps exists in rsskit.

bench/tracer.py wraps rsskit.<layer>.<fn> by name, so renaming or
deleting one of them breaks every traced benchmark run.  The tracer's
LAYERS table is read here, not edited, so the test suite catches that.
"""
import importlib
import importlib.util
import sys
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


def counted(monkeypatch, layer, fn):
    """A call count of rsskit.<layer>.<fn>, taken as bench/tracer.py takes
    it: every rsskit module attribute that holds the function is rebound."""
    import rsskit.cli  # noqa: F401  every module the workloads load
    real, calls = getattr(importlib.import_module(f"rsskit.{layer}"), fn), [0]

    def counter(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "rsskit" or name.startswith("rsskit.")):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counter)
    return calls


def test_supervised_workload_seams(monkeypatch):
    """The supervised seams that bench/test_bench.py relies on: the negative
    control locates each collision with dynamics.refine_crossing (its traced
    calls must stay above 0), and neither half runs dynamics.analyze_gap."""
    from rsskit import verify
    from rsskit.core import RssParams
    from rsskit.supervisor import SupervisorConfig

    refine = counted(monkeypatch, "dynamics", "refine_crossing")
    analyze = counted(monkeypatch, "dynamics", "analyze_gap")
    params, cfg = RssParams(0.3, 2.0, 4.0, 8.0), verify.CampaignConfig(seed=7, n_trials=40)
    out = verify.verify_supervised_safety(params, SupervisorConfig(), cfg, supervised=False)
    assert out.stats["collisions"] == refine[0] == 40
    assert verify.verify_supervised_safety(params, SupervisorConfig(), cfg).ok
    assert analyze == [0]


def test_audit_evaluates_every_sample_twice(monkeypatch):
    """The audit_io seam that bench/test_bench.py relies on:
    audit.evaluate_per_sample, rule.evaluate's calls inside audit.audit per
    sample audited, must stay above 1; today it is 2."""
    from rsskit.audit import audit
    from rsskit.core import RssParams, ScenarioState
    from rsskit.dynamics import worst_case_pov
    from rsskit.rule import safe_distance
    from rsskit.supervisor import SupervisorConfig, adversarial_ac, run_supervised

    params = RssParams(0.3, 2.0, 4.0, 8.0)
    evaluate = counted(monkeypatch, "rule", "evaluate")
    start = ScenarioState(safe_distance(params, 20.0, 15.0) + 1.0, 15.0, 0.0, 20.0)
    for supervised in (True, False):
        traj = run_supervised(params, SupervisorConfig(), start, adversarial_ac(params), worst_case_pov(params),
                              dt=0.01, supervised=supervised).to_trajectory()
        evaluate[0] = 0
        audit(traj)
        assert evaluate[0] == 2 * len(traj.samples)
