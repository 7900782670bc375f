"""Command-line front end: run simulations, size networks, validate configs.

Exit codes: 0 success, 1 usage error, 2 config or validation error,
3 a request ended failed or partial under --strict.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import planner
from .harness import Engine
from .model import ParseError, PRESETS, Topology, ValidationError, load_topology, preset
from .planner import Geometry, PlannerParams
from .scenarios import BUNDLED, PLANNER_SWEEP, ScenarioError, bundled_scenario, parse_scenario
from .transport import DeliveryStatus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_SCENARIO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qkdnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario over a topology")
    grp = run.add_mutually_exclusive_group(required=True)
    grp.add_argument("--topology", help="topology config file")
    grp.add_argument("--preset", choices=sorted(PRESETS), help="built-in topology")
    run.add_argument("--scenario", required=True,
                     help=f"scenario file or bundled name {sorted(BUNDLED)}")
    run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    run.add_argument("--out", default="qkdnet-out", help="output directory")
    run.add_argument("--strict", action="store_true",
                     help="exit 3 if any request is not delivered in full")

    plan = sub.add_parser("plan", help="cost-per-bit sweep and optimal link length")
    plan.add_argument("--alpha", type=float, default=0.2, help="attenuation dB/km")
    plan.add_argument("--r0", type=float, default=10000.0, help="rate at zero length, bit/s")
    plan.add_argument("--device-cost", type=float, default=1.0)
    plan.add_argument("--distance", type=float, default=100.0, help="end-to-end km")
    plan.add_argument("--geometry", choices=["chain", "grid"], default="chain")
    plan.add_argument("--integer", action="store_true",
                      help="whole device pairs on equal links")
    plan.add_argument("--curve-out", help="write the cost curve CSV here")
    plan.add_argument("--bundled", choices=["planner-sweep"],
                      help="use the bundled parameter set")

    val = sub.add_parser("validate", help="check a topology config")
    vgrp = val.add_mutually_exclusive_group(required=True)
    vgrp.add_argument("--topology", help="topology config file")
    vgrp.add_argument("--preset", choices=sorted(PRESETS))

    scaling = sub.add_parser("scaling", help="full-mesh vs access-network link counts")
    scaling.add_argument("--users", required=True,
                         help="comma-separated user counts, e.g. 2,5,100")
    return parser


def _load_topology_arg(args) -> Topology:
    if args.preset:
        return preset(args.preset)
    text = Path(args.topology).read_text()
    return load_topology(text)


def _unreadable(what: str, path: str, exc: OSError | UnicodeDecodeError) -> int:
    """Report a config file that could not be read (missing, a directory,
    not UTF-8, ...) on one line; it is bad config."""
    if isinstance(exc, FileNotFoundError):
        print(f"error: {what} not found: {path}", file=sys.stderr)
    else:
        print(f"error: cannot read {what} {path}: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_run(args) -> int:
    try:
        topo = _load_topology_arg(args)
    except (OSError, UnicodeDecodeError) as exc:
        return _unreadable("topology file", args.topology, exc)
    except (ParseError, ValidationError) as exc:
        print(f"error: invalid topology: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.scenario in BUNDLED:
        scenario_text = bundled_scenario(args.scenario)
    else:
        try:
            scenario_text = Path(args.scenario).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            return _unreadable("scenario", args.scenario, exc)
    try:
        scenario = parse_scenario(scenario_text)
        engine = Engine(topo, scenario, seed=args.seed)
        report = engine.run()
    except (ScenarioError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(report.metrics_csv())
    (out / "summary.json").write_text(report.summary_json())
    (out / "audit.log").write_text(report.audit_text())
    undelivered = False
    for rec in report.records:
        took = (
            f"{rec.completion_time_s - rec.started_s:.3f}s"
            if rec.completion_time_s is not None else "-"
        )
        print(
            f"request {rec.request_id} {rec.src}->{rec.dst} {rec.n_bytes}B "
            f"{rec.status.value} in {took}"
            + (f" ({rec.failure_reason})" if rec.failure_reason else "")
        )
        # a partial secret differs between the two ends and is unusable
        if rec.status is not DeliveryStatus.DELIVERED:
            undelivered = True
    print(f"wrote {out / 'metrics.csv'}, {out / 'summary.json'}, {out / 'audit.log'}")
    if args.strict and undelivered:
        return EXIT_SCENARIO
    return EXIT_OK


def _cmd_plan(args) -> int:
    if args.bundled:
        vars(args).update(PLANNER_SWEEP)
    try:
        params = PlannerParams(
            device_cost=args.device_cost,
            r0_bps=args.r0,
            alpha_db_per_km=args.alpha,
            total_distance_km=args.distance,
            geometry=Geometry.GRID2D if args.geometry == "grid" else Geometry.CHAIN,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    l_star = planner.optimal_link_length(params, integer_devices=args.integer)
    mode = "integer devices" if args.integer else "relaxed"
    print(f"optimal link length: {l_star:.2f} km ({mode})")
    print(f"closed-form relaxed optimum: {planner.relaxed_optimum_km(args.alpha):.2f} km")
    if args.curve_out:
        Path(args.curve_out).write_text(
            planner.curve_csv(params, relaxed=not args.integer)
        )
        print(f"wrote {args.curve_out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        topo = _load_topology_arg(args)
    except (OSError, UnicodeDecodeError) as exc:
        return _unreadable("topology file", args.topology, exc)
    except (ParseError, ValidationError) as exc:
        print(f"error: invalid topology: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    n_qbb = len(topo.qbb_links())
    n_qan = len(topo.qan_links())
    print(f"{n_qbb} QBB links, {n_qan} QAN links, connected: yes")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    try:
        users = [int(tok) for tok in args.users.split(",") if tok.strip()]
        if not users or any(u < 1 for u in users):
            raise ValueError
    except ValueError:
        print("error: --users needs positive integers", file=sys.stderr)
        return EXIT_USAGE
    print("users,full_mesh_links,access_links")
    for n, mesh, access in planner.scaling_table(users):
        print(f"{n},{mesh},{access}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "scaling":
        return _cmd_scaling(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
