from collections import Counter

import numpy as np
import pytest

from rsskit import verify
from rsskit.core import RssParams
from rsskit.errors import ConfigError
from rsskit.dynamics import ALL_CASES
from rsskit.report import dump_report, make_report
from rsskit.rule import safe_distance
from rsskit.supervisor import SupervisorConfig
from rsskit.verify import (
    CASE_COVERAGE_PAIRS,
    GRID_SPEEDS,
    MAX_POV_SEGMENTS,
    CampaignConfig,
    campaign_from_dict,
    falsify_below_threshold,
    verify_safety_theorem,
    verify_supervised_safety,
)

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)


def test_campaign_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(n_trials=-1)
    with pytest.raises(ConfigError):
        CampaignConfig(v_min=10.0, v_max=5.0)
    with pytest.raises(ConfigError):
        CampaignConfig(sim_dt=0.0)
    with pytest.raises(ConfigError):
        CampaignConfig(pov_segments_min=0)


@pytest.mark.parametrize("margin_max", [0.0, -5.0, float("nan")])
def test_margin_max_must_be_positive(margin_max):
    # starts at or below the threshold were reported as counterexamples
    with pytest.raises(ConfigError, match="margin_max must be > 0"):
        CampaignConfig(margin_max=margin_max)


def test_pov_segment_count_is_bounded():
    # 1e8 segments tried to allocate 1e8-float arrays for every trial
    CampaignConfig(pov_segments_max=MAX_POV_SEGMENTS)
    with pytest.raises(ConfigError, match=str(MAX_POV_SEGMENTS)):
        CampaignConfig(pov_segments_max=MAX_POV_SEGMENTS + 1)
    with pytest.raises(ConfigError):
        campaign_from_dict({"pov_segments_max": 100_000_000})


def test_campaign_from_dict_round_trip():
    cfg = CampaignConfig(seed=9, n_trials=17)
    assert campaign_from_dict(cfg.to_dict()) == cfg
    # an int for a float key is echoed as a float, as in parameter files
    assert repr(campaign_from_dict({"v_max": 40}).to_dict()["v_max"]) == "40.0"
    with pytest.raises(ConfigError):
        campaign_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        campaign_from_dict([1, 2])


@pytest.mark.parametrize(
    "raw",
    [{"n_trials": "5"}, {"n_trials": 5.0}, {"include_grid": 1}, {"seed": -1},
     {"v_max": 10 ** 400}, {"margin_max": True}, {"v_max": 10 ** 5000},
     # ints too long for repr, whose refusal messages raised ValueError
     {"seed": -10 ** 5000}, {"n_trials": -10 ** 5000}, {"pov_segments_max": 10 ** 5000}],
)
def test_campaign_from_dict_rejects_mistyped_values(raw):
    with pytest.raises(ConfigError):
        campaign_from_dict(raw)


@pytest.mark.parametrize(
    "fields",
    [{"v_max": 10 ** 5000}, {"margin_max": 10 ** 400}, {"a_fwd_max": 10 ** 400},
     {"n_trials": 2.5}, {"n_trials": "3"}, {"seed": 1.5}, {"include_grid": "no"},
     {"sim_dt": True}, {"margin_max": float("inf")}, {"sim_dt": float("inf")},
     {"v_min": -float("inf")}],
)
def test_campaign_config_refuses_what_campaign_from_dict_refuses(fields):
    # through the API these raised OverflowError, TypeError or DomainError, or were
    # accepted; a NaN still meets the range checks (test_margin_max_must_be_positive)
    (key,) = fields
    with pytest.raises(ConfigError, match=f"campaign '{key}' is not"):
        verify_safety_theorem(PAPER, CampaignConfig(**fields))
    with pytest.raises(ConfigError, match=f"campaign '{key}' is not"):
        campaign_from_dict(fields)


def test_campaign_config_stores_floats():
    cfg = CampaignConfig(v_max=40, margin_max=np.float64(2.0))
    assert (type(cfg.v_max), type(cfg.margin_max)) == (float, float)
    assert cfg == campaign_from_dict({"v_max": 40, "margin_max": 2})
    assert type(CampaignConfig(a_fwd_max=np.float64("nan")).a_fwd_max) is float


def test_safety_theorem_small_campaign():
    out = verify_safety_theorem(PAPER, CampaignConfig(seed=2, n_trials=300))
    assert out.ok
    assert out.trials_run >= 300
    assert out.stats["randomized_trials"] == 300
    # the worst case really is worst: no randomized run undercut it
    assert out.stats["randomized_min_gap_below_worst"] == 0


def test_grid_alone_covers_all_cases():
    out = verify_safety_theorem(PAPER, CampaignConfig(seed=0, n_trials=0))
    assert out.ok
    assert all(out.cases_seen[c] > 0 for c in ALL_CASES)


def test_case_coverage_pairs_are_distinct_cases():
    from rsskit.dynamics import classify_worst_case
    from rsskit.core import ScenarioState

    seen = {
        classify_worst_case(PAPER, ScenarioState(500.0, v_f, 0.0, v_r))
        for v_r, v_f in CASE_COVERAGE_PAIRS
    }
    assert seen == set(ALL_CASES)


def test_falsification_small_campaign():
    out = falsify_below_threshold(PAPER, CampaignConfig(seed=2, n_trials=200))
    assert out.ok  # every below-threshold trial collided
    assert out.trials_run >= 200


def test_falsification_needs_positive_threshold():
    # rear vehicle parked against a fast front: d_min is always 0 there
    cfg = CampaignConfig(seed=0, v_min=0.0, v_max=0.0, n_trials=5, include_grid=False)
    p = RssParams(1e-6, 0.0, 4.0, 8.0)
    with pytest.raises(ConfigError):
        falsify_below_threshold(p, cfg)


def test_every_falsification_trial_runs_through_the_seam(monkeypatch):
    # with a worst case that never collides, every trial is a counterexample
    starts = []

    def never_collides(params, start):
        starts.append(start)
        return None, None, 1.0, 0.0, 1.0, 1.0

    monkeypatch.setattr(verify, "worst_case_gap_analysis", never_collides)
    out = falsify_below_threshold(PAPER, CampaignConfig(seed=6, n_trials=120))
    grid = sum(safe_distance(PAPER, v_r, v_f) > 0.0 for v_r in GRID_SPEEDS for v_f in GRID_SPEEDS)
    sources = [ce["source"] for ce in out.counterexamples]
    assert sources.count("grid_boundary") == grid > 0
    assert sources.count("random") == 120
    assert len(sources) == out.trials_run == len(starts) == grid + 120


def test_falsification_draws_a_bounded_block(monkeypatch):
    # a huge n_trials must not size the first draw
    sizes = []

    class Stop(Exception):
        pass

    class Recording:
        def __init__(self, seed):
            pass

        def random(self, size=None):
            sizes.append(size)
            raise Stop

    monkeypatch.setattr(np.random, "default_rng", Recording)
    with pytest.raises(Stop):
        falsify_below_threshold(PAPER, CampaignConfig(n_trials=10 ** 9, include_grid=False))
    assert len(sizes) == 1 and sizes[0][0] <= verify.CHUNK


def test_safety_campaign_draws_a_bounded_block(monkeypatch):
    # one draw matrix a chunk, sized from the chunk whatever n_trials, and no
    # Generator call per trial
    sizes = []

    class Stop(Exception):
        pass

    class Recording:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def random(self, size=None):
            sizes.append(size)
            if len(sizes) > 1:  # the second chunk's draws
                raise Stop
            return self.rng.random(size)

        def integers(self, *args):
            raise AssertionError("Generator.integers called")

    monkeypatch.setattr(np.random, "default_rng", Recording)
    with pytest.raises(Stop):
        verify_safety_theorem(PAPER, CampaignConfig(n_trials=10 ** 9, include_grid=False))
    assert sizes == [(verify.CHUNK, 2 * 8 + 9)] * 2


def test_grid_rides_in_the_first_chunk(monkeypatch):
    # 1,000 trials with the grid: one worst-case call for the grid's 247 starts
    # and the trials, one randomized call, each building two profiles
    calls = []
    for name in ("analyze_gaps", "build_profiles"):
        real = getattr(verify.batch, name)
        monkeypatch.setattr(verify.batch, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    verify_safety_theorem(PAPER, CampaignConfig(n_trials=1000))
    assert (calls.count("analyze_gaps"), calls.count("build_profiles")) == (2, 4)

    # every row collides: each counterexample takes its source from its row
    def colliding(prof_r, prof_f, length):
        return np.zeros(prof_r.shape[1]), np.zeros(prof_r.shape[1])

    monkeypatch.setattr(verify.batch, "analyze_gaps", colliding)
    outcome = verify_safety_theorem(PAPER, CampaignConfig(n_trials=1000))
    kinds = Counter((ce["behavior"], ce["source"]) for ce in outcome.counterexamples)
    assert kinds == {("worst_case", "grid"): 247, ("worst_case", "random"): 1000, ("randomized", "random"): 1000}
    outcome = verify_safety_theorem(PAPER, CampaignConfig(n_trials=0))
    kinds = Counter((ce["behavior"], ce["source"]) for ce in outcome.counterexamples)
    assert outcome.trials_run == sum(outcome.cases_seen.values()) == 247
    assert kinds == {("worst_case", "grid"): 247}


@pytest.mark.parametrize("supervised", [True, False])
def test_supervised_campaign_draws_a_bounded_block(monkeypatch, supervised):
    # one chunk of starts a draw whatever n_trials: drawing every start up
    # front asked numpy for 21.8 TiB at 10**12 trials
    sizes = []

    class Stop(Exception):
        pass

    class Recording:
        def __init__(self, seed):
            pass

        def random(self, size=None):
            sizes.append(size)
            raise Stop

    monkeypatch.setattr(np.random, "default_rng", Recording)
    for n_trials in (10 ** 12, 10 ** 5000):
        with pytest.raises(Stop):
            verify_supervised_safety(PAPER, SupervisorConfig(), CampaignConfig(n_trials=n_trials),
                                     supervised=supervised)
    assert sizes == [(verify.CHUNK, 3)] * 2


def test_supervised_campaign_small():
    cfg = CampaignConfig(seed=4, n_trials=50)
    out = verify_supervised_safety(PAPER, SupervisorConfig(), cfg)
    assert out.ok
    assert out.stats["collisions"] == 0
    assert out.stats["noncompliant"] == 0
    assert out.stats["bc_engagements"] >= 1


def test_a_noncompliant_episode_is_a_counterexample(monkeypatch):
    # the engine's compliance verdict alone, with no collision, makes one
    engine, seen = verify.batch.supervised_lockstep, []

    def third_noncompliant(params, sup_cfg, starts, dt, t_end):
        fallback, eng, compliant = engine(params, sup_cfg, starts, dt, t_end)
        assert not fallback[2]  # else the scalar path would decide its compliance
        seen.append(starts[2].tolist())
        compliant[2] = False
        return fallback, eng, compliant

    monkeypatch.setattr(verify.batch, "supervised_lockstep", third_noncompliant)
    out = verify_supervised_safety(PAPER, SupervisorConfig(), CampaignConfig(seed=4, n_trials=5))
    (gap, v_f, _, v_r), = seen
    assert out.counterexamples == [{"v_r": v_r, "v_f": v_f, "gap": gap, "behavior": "adversarial_ac",
                                    "collision_t": None, "source": "noncompliant"}]
    assert out.stats["noncompliant"] == 1 and out.stats["collisions"] == 0 and not out.ok


def test_supervised_negative_control_small():
    cfg = CampaignConfig(seed=4, n_trials=20)
    out = verify_supervised_safety(PAPER, SupervisorConfig(), cfg, supervised=False)
    assert out.stats["collisions"] >= 1


@pytest.mark.parametrize("runner", [verify_safety_theorem, falsify_below_threshold])
def test_campaign_determinism(runner):
    cfg = CampaignConfig(seed=11, n_trials=100)
    a = runner(PAPER, cfg).to_dict()
    b = runner(PAPER, cfg).to_dict()
    assert a == b


def test_report_determinism_modulo_timestamp():
    cfg = CampaignConfig(seed=11, n_trials=50)
    reports = []
    for _ in range(2):
        out = verify_safety_theorem(PAPER, cfg)
        rep = make_report("verify", PAPER, cfg.to_dict(), out.to_dict())
        rep.pop("generated_at")
        reports.append(dump_report(rep))
    assert reports[0] == reports[1]


def test_different_seeds_sample_different_states():
    a = verify_safety_theorem(PAPER, CampaignConfig(seed=1, n_trials=200, include_grid=False))
    b = verify_safety_theorem(PAPER, CampaignConfig(seed=2, n_trials=200, include_grid=False))
    assert a.trials_run == b.trials_run == 200
    assert a.cases_seen != b.cases_seen


def test_campaigns_hold_with_vehicle_length():
    p = RssParams(0.3, 2.0, 4.0, 8.0, vehicle_length=4.5)
    cfg = CampaignConfig(seed=8, n_trials=100)
    assert verify_safety_theorem(p, cfg).ok
    assert falsify_below_threshold(p, cfg).ok
    out = verify_supervised_safety(p, SupervisorConfig(), CampaignConfig(seed=8, n_trials=30))
    assert out.ok and out.stats["bc_engagements"] >= 1
