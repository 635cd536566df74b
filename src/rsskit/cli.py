"""Command-line front end.

Exit-code contract: 0 = success / property holds, 1 = property failed
(non-compliant audit, counterexamples found, falsification incomplete),
2 = usage or validation error, 3 = simulate start state violates the
safety condition.  This lets the verification suite double as a CI gate.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .audit import DEFAULT_ACCEL_TOL, audit as run_audit
from .core import ScenarioState, as_float, load_json, load_params
from .dynamics import POV_A_FWD_MAX, gentle_pov, piecewise_pov, worst_case_pov
from .errors import ConfigError, DomainError, InvariantBreach, RssError
from .report import report_text
from .rule import evaluate, safe_distance_terms
from .supervisor import (
    SupervisorConfig,
    adversarial_ac,
    benign_ac,
    run_supervised,
)
from .trajio import read_trajectory, write_metric_csv, write_trajectory
from .verify import (
    CampaignConfig,
    campaign_from_dict,
    falsify_below_threshold,
    verify_safety_theorem,
    verify_supervised_safety,
)

PARAMS_ENV = "RSSKIT_PARAMS"

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _load_params_arg(args):
    path = args.params or os.environ.get(PARAMS_ENV)
    if not path:
        raise RssError(
            f"no parameter file: pass --params or set ${PARAMS_ENV}"
        )
    return load_params(path)


def _load_supervisor_config(path):
    if not path:
        return SupervisorConfig()
    raw = load_json(path, "supervisor config")
    if not isinstance(raw, dict) or set(raw) - {"period", "switchback_margin", "sv_command_bounds"}:
        raise ConfigError(
            "supervisor config must be a mapping with keys among period, "
            f"switchback_margin and sv_command_bounds, got {raw!r}"
        )
    bounds = raw.get("sv_command_bounds")
    try:
        if bounds is not None:
            lo, hi = (as_float(b) for b in bounds)
            bounds = (lo, hi)
        return SupervisorConfig(
            period=as_float(raw.get("period", 0.1)),
            switchback_margin=as_float(raw.get("switchback_margin", 1.0)),
            sv_command_bounds=bounds,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed supervisor config {path}: {exc}") from exc


def _load_campaign(path):
    if not path:
        return CampaignConfig()
    return campaign_from_dict(load_json(path, "campaign"))


def cmd_safe_distance(args) -> int:
    params = _load_params_arg(args)
    terms = safe_distance_terms(params, args.v_r, args.v_f)
    print(f"d_min = {terms['d_min']:.9g} m")
    print(f"  rear response travel     : {terms['response_travel']:.9g} m")
    print(f"  response accel gain      : {terms['response_gain']:.9g} m")
    print(f"  rear braking travel      : {terms['sv_brake_travel']:.9g} m")
    print(f"  front braking travel     : -{terms['pov_brake_travel']:.9g} m")
    print(f"  raw (pre-clamp)          : {terms['raw']:.9g} m")
    return EXIT_OK


def _make_pov(params, spec):
    if spec == "worst":
        return worst_case_pov(params)
    if spec == "gentle":
        return gentle_pov(params)
    if spec.startswith("random:"):
        seed = spec.split(":", 1)[1]
        if not (seed.isascii() and seed.isdigit()):
            raise RssError(f"POV seed must be a nonnegative integer, got {seed!r}")
        rng = np.random.default_rng(int(seed))
        cuts = np.sort(rng.uniform(0.0, 20.0, size=5))
        accels = rng.uniform(-params.a_brake_max, POV_A_FWD_MAX, size=6)
        sched = [(0.0, float(accels[0]))] + [
            (float(t), float(a)) for t, a in zip(cuts, accels[1:])
        ]
        return piecewise_pov(params, sched)
    raise RssError(f"unknown POV behavior {spec!r} (use worst|gentle|random:SEED)")


def cmd_simulate(args) -> int:
    params = _load_params_arg(args)
    cfg = _load_supervisor_config(args.supervisor_config)
    start = ScenarioState(args.gap, args.v_f, 0.0, args.v_r)
    if not evaluate(params, start).condition_holds:
        print("error: start state violates the safety condition", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.ac == "adversarial":
        ac = adversarial_ac(params)
    elif args.ac == "benign":
        ac = benign_ac(params)
    else:
        raise RssError(f"unknown AC policy {args.ac!r} (use adversarial|benign)")
    pov = _make_pov(params, args.pov)
    trace = run_supervised(
        params, cfg, start, ac, pov,
        dt=args.dt, t_end=args.t_end, supervised=not args.no_supervisor,
    )
    write_trajectory(trace.to_trajectory(), args.out)
    print(f"collision: {'yes' if trace.collision else 'no'}")
    print(f"min gap: {trace.min_gap:.9g} m at t = {trace.min_gap_time:.9g} s")
    print(f"BC engagements: {trace.bc_engagements}")
    print(f"samples written: {len(trace.samples)} -> {args.out}")
    return EXIT_OK


def _write_report(path, kind, params, config, outcome) -> None:
    try:
        text = report_text(kind, params, config, outcome)
    except ValueError as exc:  # NaN, or a value that overflowed to +-inf
        raise DomainError(f"cannot write the {kind} report: {exc}") from exc
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_audit(args) -> int:
    params = _load_params_arg(args)
    traj = read_trajectory(args.trajectory, params)
    report = run_audit(traj, accel_tol=args.accel_tol)
    config = {"trajectory": os.path.basename(args.trajectory), "accel_tol": args.accel_tol}
    _write_report(args.out, "audit", params, config, report.to_dict())
    if args.metric_csv:
        write_metric_csv(traj, args.metric_csv, [m for _, _, m, _ in report.per_sample])
    print(f"compliant: {report.compliant}")
    print(f"metric score: {report.metric_score:.9g} m")
    print(f"liability: {report.liability}")
    for v in report.violations:
        print(f"violation: [{v.t_start:.9g}, {v.t_end:.9g}] {v.reason}")
    return EXIT_OK if report.compliant else EXIT_PROPERTY_FAILED


def cmd_campaign(args) -> int:
    """verify (safety or supervised kind) and falsify."""
    params = _load_params_arg(args)
    campaign = _load_campaign(args.campaign)
    if args.command == "falsify":
        outcome = falsify_below_threshold(params, campaign)
    elif args.kind == "supervised":
        sup_cfg = _load_supervisor_config(args.supervisor_config)
        outcome = verify_supervised_safety(params, sup_cfg, campaign)
    else:
        outcome = verify_safety_theorem(params, campaign)
    _write_report(args.out, args.command, params, campaign.to_dict(), outcome.to_dict())
    print(f"trials: {outcome.trials_run}")
    label = "collision-free survivors" if args.command == "falsify" else "counterexamples"
    print(f"{label}: {len(outcome.counterexamples)}")
    return EXIT_OK if outcome.ok else EXIT_PROPERTY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsskit",
        description="Safe-distance rule engine, simplex supervisor, and "
        "trajectory auditor for the single-lane same-direction scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--params", help=f"parameter JSON file (default ${PARAMS_ENV})")

    p = sub.add_parser("safe-distance", help="evaluate the safe-distance formula")
    add_params(p)
    p.add_argument("--v-r", type=float, required=True, help="rear (SV) velocity [m/s]")
    p.add_argument("--v-f", type=float, required=True, help="front (POV) velocity [m/s]")
    p.set_defaults(func=cmd_safe_distance)

    p = sub.add_parser("simulate", help="run a supervised two-vehicle episode")
    add_params(p)
    p.add_argument("--supervisor-config", help="supervisor JSON config")
    p.add_argument("--gap", type=float, required=True, help="initial gap [m]")
    p.add_argument("--v-r", type=float, required=True)
    p.add_argument("--v-f", type=float, required=True)
    p.add_argument("--ac", default="benign", help="adversarial|benign")
    p.add_argument("--pov", default="worst", help="worst|gentle|random:SEED")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--no-supervisor", action="store_true",
                   help="bypass the decision module (negative control)")
    p.add_argument("--out", required=True, help="trajectory CSV output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="audit a recorded trajectory")
    add_params(p)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--accel-tol", type=float, default=DEFAULT_ACCEL_TOL)
    p.add_argument("--out", help="report JSON output")
    p.add_argument("--metric-csv", help="per-sample metric timeline CSV")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify", help="run a safety verification campaign")
    add_params(p)
    p.add_argument("--campaign", help="campaign JSON config")
    p.add_argument("--kind", default="safety", choices=("safety", "supervised"))
    p.add_argument("--supervisor-config")
    p.add_argument("--out", help="report JSON output")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("falsify", help="check tightness below the threshold")
    add_params(p)
    p.add_argument("--campaign", help="campaign JSON config")
    p.add_argument("--out", help="report JSON output")
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantBreach as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (RssError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
