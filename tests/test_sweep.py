"""Seeded parameter sweep: the safety guarantee, its tightness and the
supervised loop over random valid parameter sets, with vehicles of
nonzero length and step sizes that do not divide the decision period.
"""
import random
from dataclasses import replace

from rsskit.core import RssParams
from rsskit.errors import ConfigError
from rsskit.supervisor import SupervisorConfig
from rsskit.verify import (
    CampaignConfig,
    falsify_below_threshold,
    verify_safety_theorem,
    verify_supervised_safety,
)

PARAMETER_SETS = 40


def test_parameter_sweep_finds_no_counterexample():
    rng = random.Random(20261018)
    accepted = rejected = engagements = 0
    for i in range(PARAMETER_SETS):
        a_brake_min = rng.uniform(1.0, 8.0)
        params = RssParams(
            rho=rng.uniform(0.1, 1.5),
            a_max=rng.uniform(0.0, 5.0),
            a_brake_min=a_brake_min,
            a_brake_max=a_brake_min * rng.uniform(1.05, 3.0),
            vehicle_length=rng.uniform(0.1, 6.0),
        )
        period = params.rho * rng.uniform(0.2, 1.0)
        steps = rng.randint(1, 4) + rng.uniform(0.1, 0.9)
        dt = period / steps  # never divides the period
        campaign = CampaignConfig(seed=i, n_trials=50, sim_dt=dt, include_grid=i % 4 == 0)
        where = (i, params, period, dt)

        safety = verify_safety_theorem(params, campaign)
        assert safety.ok, (where, safety.counterexamples)
        falsification = falsify_below_threshold(params, campaign)
        assert falsification.ok, (where, falsification.counterexamples)

        # decisions land on the step grid, so the realized decision
        # interval is round(period / dt) * dt; past rho the run is refused
        realized = max(1, round(period / dt)) * dt
        sup_cfg = SupervisorConfig(period, rng.uniform(0.0, 3.0))
        try:
            supervised = verify_supervised_safety(params, sup_cfg, replace(campaign, n_trials=6))
        except ConfigError:
            assert realized > params.rho, where
            rejected += 1
            continue
        assert realized <= params.rho, where
        assert supervised.ok, (where, supervised.counterexamples)
        assert supervised.stats["collisions"] == supervised.stats["noncompliant"] == 0
        accepted += 1
        engagements += supervised.stats["bc_engagements"]

    assert accepted + rejected == PARAMETER_SETS
    # the sweep must mostly run, and the refusal must be exercised
    assert accepted >= 2 * PARAMETER_SETS // 3 and rejected >= 1, (accepted, rejected)
    assert engagements >= accepted
