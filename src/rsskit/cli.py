"""Command-line front end.

Exit-code contract: 0 = success / property holds, 1 = property failed
(non-compliant audit, counterexamples found, falsification incomplete),
2 = usage or validation error, 3 = simulate start state violates the
safety condition.  This lets the verification suite double as a CI gate.
A command executes only the modules it runs: verify and batch only verify
and falsify, numpy only those and simulate --pov random:SEED, trajio only
simulate and audit, report only audit and the campaigns.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .audit import DEFAULT_ACCEL_TOL, audit as run_audit
from .core import ScenarioState, lazy_module, load_json, load_params, np, read_record, write_text
from .dynamics import POV_A_FWD_MAX, gentle_pov, piecewise_pov, worst_case_pov
from .errors import DomainError, InvariantBreach, RssError
from .rule import safe_distance_terms
from .supervisor import (
    SupervisorConfig,
    adversarial_ac,
    benign_ac,
    run_supervised,
)

verify, trajio, report = map(lazy_module, ("rsskit.verify", "rsskit.trajio", "rsskit.report"))

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
    return SupervisorConfig(**read_record(raw, "supervisor config", SupervisorConfig.KINDS))


def _load_campaign(path):
    if not path:
        return verify.CampaignConfig()
    return verify.campaign_from_dict(load_json(path, "campaign"))


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
        if len(seed) > sys.get_int_max_str_digits() > 0:  # more digits than int() reads
            raise RssError(f"POV seed has more than {sys.get_int_max_str_digits()} digits")
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
    trajio.write_trajectory(trace, args.out)
    print(f"collision: {'yes' if trace.collision else 'no'}")
    print(f"min gap: {trace.min_gap:.9g} m at t = {trace.min_gap_time:.9g} s")
    print(f"BC engagements: {trace.bc_engagements}")
    print(f"samples written: {len(trace.samples)} -> {args.out}")
    return EXIT_OK


def _write_report(path, kind, params, config, outcome) -> None:
    try:
        text = report.report_text(kind, params, config, outcome)
    except ValueError as exc:  # NaN, or a value that overflowed to +-inf
        raise DomainError(f"cannot write the {kind} report: {exc}") from exc
    if path:
        write_text(path, text)


def cmd_audit(args) -> int:
    params = _load_params_arg(args)
    traj = trajio.read_trajectory(args.trajectory, params)
    outcome = run_audit(traj, accel_tol=args.accel_tol)
    config = {"trajectory": os.path.basename(args.trajectory), "accel_tol": args.accel_tol}
    _write_report(args.out, "audit", params, config, outcome.to_dict())
    if args.metric_csv:
        trajio.write_metric_csv(traj, args.metric_csv, [m for _, _, m, _ in outcome.per_sample])
    print(f"compliant: {outcome.compliant}")
    print(f"metric score: {outcome.metric_score:.9g} m")
    print(f"liability: {outcome.liability}")
    for v in outcome.violations:
        print(f"violation: [{v.t_start:.9g}, {v.t_end:.9g}] {v.reason}")
    return EXIT_OK if outcome.compliant else EXIT_PROPERTY_FAILED


def cmd_campaign(args) -> int:
    """verify (safety or supervised kind) and falsify."""
    params = _load_params_arg(args)
    campaign = _load_campaign(args.campaign)
    if args.command == "falsify":
        outcome = verify.falsify_below_threshold(params, campaign)
    elif args.kind == "supervised":
        sup_cfg = _load_supervisor_config(args.supervisor_config)
        outcome = verify.verify_supervised_safety(params, sup_cfg, campaign)
    else:
        outcome = verify.verify_safety_theorem(params, campaign)
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


# one tree per process: nothing in it depends on when it was built or on a parse
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
