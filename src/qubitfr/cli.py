"""Command line front end.

Verbs:
  run      execute a preset or a JSON config and write CSV + manifest
  presets  list the bundled scenario catalog
  invert   resolve the phase scenario ``run`` would for a target plateau
           population and print its derived block, pump probability first
  check    run the numeric acceptance suite

Exit codes: 0 success, 2 invalid configuration, 3 numerical contract
violation (including a failing acceptance check).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import scenarios
from .core import PhaseRotatingDrive
from .scenarios import ConfigError, NumericalContractError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitfr",
        description="Two-point energy statistics for a pulse-reset driven qubit.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write outputs")
    run_p.add_argument("config",
                       help="preset name, or path to a config/manifest JSON")
    run_p.add_argument("--outdir", default=None,
                       help=f"output directory (default: ${scenarios.OUTDIR_ENV} "
                            "or the working directory)")
    run_p.add_argument("--mode", choices=scenarios.MODES, default=None,
                       help="override the sampling mode")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the ensemble master seed")
    run_p.add_argument("--trajectories", type=int, default=None,
                       help="override the trajectory count per initialization")
    run_p.add_argument("--mc-grid", choices=scenarios.MC_GRIDS, default=None,
                       help="sample only the last grid time, or every point")

    sub.add_parser("presets", help="list the bundled scenario catalog")

    inv_p = sub.add_parser(
        "invert", help="pump probability for a target plateau population")
    inv_p.add_argument("--target", type=float, required=True,
                       help="stationary upper-level population to hit")
    inv_p.add_argument("--p-absorb", type=float, default=0.25,
                       help="pulse absorption probability (default 0.25)")
    group = inv_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau-theta", type=float,
                       help="drive rotation period in ns")
    group.add_argument("--theta", type=float,
                       help="drive rotation rate in rad/ns")
    inv_p.add_argument("--omega0", type=float, default=scenarios.PHASE_OMEGA0,
                       help="drive amplitude in rad/ns (default 2*pi*0.8e-3)")

    check_p = sub.add_parser("check", help="run the numeric acceptance suite")
    check_p.add_argument("--skip-mc", action="store_true",
                         help="skip the sampling consistency check")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {"mode": args.mode, "master_seed": args.seed,
                 "n_trajectories": args.trajectories, "mc_grid": args.mc_grid}
    config = scenarios.with_overrides(
        scenarios.load_config(args.config),
        **{k: v for k, v in overrides.items() if v is not None})
    manifest = scenarios.run_scenario(config, outdir=args.outdir)
    for path in manifest["csv_paths"]:
        print(f"wrote {path}")
    print(f"wrote {manifest['manifest_path']}")
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    if not 0.0 < args.target < 0.5:
        raise ConfigError("target population must lie in (0, 0.5)")
    if args.tau_theta is not None and args.tau_theta <= 0.0:
        raise ConfigError("tau-theta must be positive")
    theta = args.theta if args.tau_theta is None else 2.0 * math.pi / args.tau_theta
    try:  # names theta when its period 2 pi / theta overflows
        tau = PhaseRotatingDrive(args.omega0, theta).tau_theta
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    d = scenarios.resolve(scenarios.ScenarioConfig(
        name="invert", kind="conditional", drive_family="phase",
        omega0=args.omega0, theta=theta, tau=tau, t_f_grid=(0.0,), beta=0.0,
        p_absorb=args.p_absorb, target_upper_population=args.target)).derived
    print(f"p_pump            {d['p_pump']!r}")
    print(f"closed-form p_pump {d['p_pump_closed_form']!r}")
    print(f"alpha             {math.degrees(d['alpha_rad']):.4f} deg")
    print(f"k factor          {d['k_factor']!r}")
    print(f"beta_r * gap      {d['beta_r_gap']!r}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from . import checks  # about 6 ms to compile, which the other commands skip

    results = checks.run_all(include_mc=not args.skip_mc)
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: "
              + ", ".join(failed), file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "presets":
            print("\n".join(scenarios.list_presets()))
            return 0
        if args.command == "invert":
            return _cmd_invert(args)
        return _cmd_check(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
