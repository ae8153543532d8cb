"""Command-line entry point.

Commands:
  verify                 run the full check catalogue, write report.json
  check NAME             compute only the named catalogue check and print
                         what verify reports for it
  integrate              sphere integral of the symplectic form
  prequant               commutator / operator / integrality reports
  emit-csv WHAT          plot-data CSVs (bracket_grid, omega_coefficient,
                         eigen_residual, integral_convergence)

Flags override values from an optional flat key-value config file.  Exit
codes: 0 all assertable checks pass, 1 a check failed, 2 configuration or
usage error, or a model that cannot be evaluated at the sampled points.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .expressions import EvaluationError
from .hamiltonian import SingularSymplecticError, surface_integral
from .reports import passes
from .spacetime import schwarzschild
from .suite import (
    CHECK_CATALOGUE,
    CONFIG_KEYS,
    CSV_KINDS,
    GROUP_CHECKS,
    ConfigError,
    QuadratureSpec,
    RunConfig,
    config_from_sources,
    emit_csv,
    load_config_file,
    run_suite,
)


def _common_flags(parser):
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--mass", type=float, help="mass parameter (geometric units)")
    parser.add_argument("--seed", type=int, help="seed for all sampled checks")
    parser.add_argument("--samples", type=int, help="number of sampled chart points")
    parser.add_argument("--sections", type=int, help="number of random test sections")
    parser.add_argument(
        "--tolerance",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help="override one check threshold (repeatable)",
    )
    parser.add_argument("--scale-mode", choices=("plain", "weil"), help="curvature scaling")
    parser.add_argument("--out", help="output directory for reports and CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpsymp",
        description="verification suite for the symplectic structure of a "
        "static spherically symmetric exterior",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="run the full check catalogue")
    _common_flags(verify)

    check = commands.add_parser("check", help="compute a single check by name")
    check.add_argument("name", choices=CHECK_CATALOGUE, metavar="NAME")
    _common_flags(check)

    integrate = commands.add_parser("integrate", help="sphere integral of the symplectic form")
    _common_flags(integrate)
    integrate.add_argument("--r0", type=float, help="sphere radius")
    integrate.add_argument("--nu", type=int, help="colatitude node count")
    integrate.add_argument("--nv", type=int, help="azimuth node count")

    prequant = commands.add_parser("prequant", help="prequantum operator reports")
    _common_flags(prequant)
    prequant.add_argument("--commutators", action="store_true", help="six coordinate commutators")
    prequant.add_argument("--integrality", action="store_true", help="sphere-class integrality report")
    prequant.add_argument("--operators", action="store_true", help="geometric operator identities")

    emit = commands.add_parser("emit-csv", help="write plot-data CSV files")
    emit.add_argument("what", choices=CSV_KINDS, metavar="WHAT")
    _common_flags(emit)

    return parser


def _config_from_args(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    # each flag's dest is its config key; unset or absent flags read None,
    # which config_from_sources skips
    overrides = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    for item in args.tolerance or ():
        if "=" not in item:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        overrides[f"tolerance.{name.strip()}"] = value.strip()
    return config_from_sources(file_values, overrides)


def _print_checks(checks) -> None:
    for check in checks:
        if not check["assertable"]:
            status = "REPORT"
        elif check["pass"]:
            status = "PASS"
        else:
            status = "FAIL"
        print(
            f"[{status}] {check['check_name']}: worst={check['worst_error']:.3e} "
            f"threshold={check['threshold']:.1e}"
        )


def main(argv=None) -> int:
    """The program's entry point: run one command, return its exit code.

    It first freezes the heap alive on entry (modules and the package's
    tables), so neither the run's collections nor interpreter shutdown walk
    or free it.  An in-process caller's objects stay frozen after the call,
    garbage or not, until it calls ``gc.unfreeze()``.
    """
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)

        if args.command == "verify":
            report = run_suite(config)
            _print_checks(report.checks)
            out_dir = Path(config.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            report_path = out_dir / "report.json"
            report_path.write_text(report.to_json() + "\n")
            print(f"report written to {report_path}")
            print(f"suite {'PASSED' if report.all_passed else 'FAILED'} "
                  f"in {report.wall_time_seconds:.2f} s")
            return report.exit_code

        if args.command == "check":
            report = run_suite(config, only=args.name)
            _print_checks(report.checks)
            return report.exit_code

        if args.command == "integrate":
            model = schwarzschild(config.mass)
            spec = QuadratureSpec(
                n_u=config.n_u, n_v=config.n_v, r0=config.resolved_r0(), t0=config.t0
            )
            result = surface_integral(model.symplectic_form, spec, model)
            deviation = abs(result.value - config.mass)
            print(f"integral={result.value!r} mass={config.mass!r} |difference|={deviation:.3e}")
            print(f"error_estimate={result.error_estimate:.3e} n_u={result.n_u} n_v={result.n_v}")
            # The integrate verdict is the sphere-class check, the first of its group.
            tolerance = config.tolerance(GROUP_CHECKS["sphere_integral"][0])
            return 0 if passes(deviation, tolerance) else 1

        if args.command == "prequant":
            # Each flag is named after the check group it selects.
            groups = [g for g in ("commutators", "operators", "integrality") if getattr(args, g)]
            if not groups:
                raise ConfigError(
                    "prequant needs at least one of --commutators, --integrality, --operators"
                )
            report = run_suite(config, only=[name for g in groups for name in GROUP_CHECKS[g]])
            _print_checks(report.checks)
            return report.exit_code

        if args.command == "emit-csv":
            path = emit_csv(args.what, config)
            print(f"wrote {path}")
            return 0

        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (EvaluationError, SingularSymplecticError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
