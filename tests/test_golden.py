"""Pinned outputs.

The sha256 of the canonical outcome JSON of small seeded campaigns, of
three `rsskit simulate` trajectory CSVs, and of the `rsskit audit` report
and metric CSV of each of those trajectories, is fixed here.  A change that
moves any of these outputs must update the hash on purpose and say why.
"""
import hashlib
import json

import pytest

from rsskit import verify
from rsskit.cli import main
from rsskit.core import RssParams
from rsskit.report import canonical_json
from rsskit.supervisor import SupervisorConfig
from rsskit.verify import (
    CampaignConfig,
    falsify_below_threshold,
    verify_safety_theorem,
    verify_supervised_safety,
)

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)
PARAMS = {"rho": 0.3, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0}

CAMPAIGNS = {
    "safety": lambda: verify_safety_theorem(PAPER, CampaignConfig(seed=3, n_trials=200)),
    "falsify": lambda: falsify_below_threshold(PAPER, CampaignConfig(seed=3, n_trials=200)),
    "supervised": lambda: verify_supervised_safety(
        PAPER, SupervisorConfig(), CampaignConfig(seed=3, n_trials=30)
    ),
    "negative": lambda: verify_supervised_safety(
        PAPER, SupervisorConfig(), CampaignConfig(seed=3, n_trials=30), supervised=False
    ),
}

CAMPAIGN_SHA256 = {
    "safety": "90be4de5c16eef087aed5adecb7d4225bba1c4076d816205f5088314f49c64ad",
    "falsify": "ee3ecf34f82b112431bbc55900ff54cba7b345b6f2666661f934a2a36106b6aa",
    "supervised": "1042fedb5b9b5a47dd9cde7afe279bd8f69134dad250e6feabd800e923649db8",
    "negative": "ccb23132f9564726c8f655b2ea04ca0df08c4b01efa3638055e1aabe104e8d47",
    # the (v_r, v_f, gap) starts the "falsify" campaign hands the worst case,
    # in order: its outcome holds only counts, which no draw moves
    "falsify_starts": "80a98e2e15a4be3799b282ab512534eddfb5f3dc192ca6d85457a02f5fcdc4b5",
}

SIMULATIONS = {
    "benign": ["--gap", "60", "--v-r", "20", "--v-f", "20", "--ac", "benign"],
    "adversarial": ["--gap", "40", "--v-r", "20", "--v-f", "20", "--ac", "adversarial"],
    "unsupervised": ["--gap", "40", "--v-r", "20", "--v-f", "20", "--ac", "adversarial",
                     "--no-supervisor"],
}

SIMULATE_SHA256 = {
    "benign": "b8491548928f2856fb4ceb4473ec169e67358646ac014827362cf3747f3c33df",
    "adversarial": "9b5d3478c9725f3b88777d360f58302015f9294f4d59e6f45884cdcb5f472ea2",
    "unsupervised": "19d99e648c43b3938f465a91725b7abd27f37b35b37d856c67f16a71cc46cfec",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_outcome_pinned(name):
    outcome = CAMPAIGNS[name]().to_dict()
    assert _sha256(canonical_json(outcome).encode()) == CAMPAIGN_SHA256[name]


def test_falsification_starts_pinned(monkeypatch):
    starts, real = [], verify.worst_case_gap_analysis
    monkeypatch.setattr(verify, "worst_case_gap_analysis",
                        lambda p, s: starts.append((s.v_r, s.v_f, s.gap)) or real(p, s))
    CAMPAIGNS["falsify"]()
    assert _sha256(json.dumps(starts).encode()) == CAMPAIGN_SHA256["falsify_starts"]


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_simulate_csv_pinned(name, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS))
    out = tmp_path / "traj.csv"
    argv = ["simulate", "--params", str(params), "--dt", "0.01", "--pov", "worst",
            "--out", str(out)] + SIMULATIONS[name]
    assert main(argv) == 0
    assert _sha256(out.read_bytes()) == SIMULATE_SHA256[name]


AUDIT_EXIT = {"benign": 0, "adversarial": 0, "unsupervised": 1}

# The report file with its generated_at line removed, so the pin covers
# the file's layout as well as its values.
AUDIT_REPORT_SHA256 = {
    "benign": "09f1e0ff4c4007ba9d1b07130c58ec3a06667300754e70c39050a657fa468906",
    "adversarial": "922ec20131f906f877fb861755355d19e9c7ef6a4c3287836d09477e87116775",
    "unsupervised": "c55804b0c9142df09b15a60ba47eeff9c4e0dccd41a87a321f34d324c28dd5e0",
}

AUDIT_METRIC_SHA256 = {
    "benign": "3d2dc8ea21fef31ad24eabaf67019b1230f760e66478497bb7dd82c034c04463",
    "adversarial": "8f499ff0ca5d8ef9daf65d4edc40da2971c67603ab68733066250f1aff10f433",
    "unsupervised": "8a915e487dff00b7444d7ae868e1f8ac5c171075aee4a525e9ba9fdd5b8b3229",
}


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_audit_outputs_pinned(name, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS))
    traj = tmp_path / "traj.csv"
    argv = ["simulate", "--params", str(params), "--dt", "0.01", "--pov", "worst",
            "--out", str(traj)] + SIMULATIONS[name]
    assert main(argv) == 0
    report, metric = tmp_path / "report.json", tmp_path / "metric.csv"
    argv = ["audit", "--trajectory", str(traj), "--params", str(params), "--out", str(report),
            "--metric-csv", str(metric)]
    assert main(argv) == AUDIT_EXIT[name]
    lines = report.read_bytes().splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(b'  "generated_at": ')]
    assert len(kept) == len(lines) - 1
    assert _sha256(b"".join(kept)) == AUDIT_REPORT_SHA256[name]
    assert _sha256(metric.read_bytes()) == AUDIT_METRIC_SHA256[name]
