"""Command-line entry point.

Commands:
  verify                 run the full check catalogue, write report.json
  check NAME             compute only the named catalogue check and print
                         what verify reports for it
  integrate              sphere integral of the symplectic form
  prequant               commutator / operator / integrality reports
  emit-csv WHAT          plot-data CSVs (bracket_grid, omega_coefficient,
                         eigen_residual, integral_convergence)

Every command takes one flag per configuration key (``--mass``, ``--nu``,
``--scale-mode``, ...), ``--config`` and ``--tolerance``; flags override
values from the optional flat key-value config file.  Every command but
``emit-csv`` is one suite run over a selection of the catalogue.  Exit codes:
0 all assertable checks pass, 1 a check failed, 2 configuration, usage or
i/o error, or a model that cannot be evaluated at the sampled points.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .expressions import EvaluationError
from .hamiltonian import SingularSymplecticError
from .suite import (
    CHECK_CATALOGUE,
    CONFIG_KEYS,
    CSV_KINDS,
    GROUP_CHECKS,
    ConfigError,
    RunConfig,
    config_from_sources,
    emit_csv,
    load_config_file,
    run_suite,
)


def _common_flags(parser):
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, (_, parse, text) in CONFIG_KEYS.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=parse, help=text)
    parser.add_argument(
        "--tolerance",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help="override one check threshold (repeatable)",
    )


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
    # each flag's dest is its config key; unset flags read None, which
    # config_from_sources skips
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    for item in args.tolerance or ():
        if "=" not in item:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        overrides[f"tolerance.{name.strip()}"] = value.strip()
    return config_from_sources(file_values, overrides)


def _selection(args):
    """The catalogue checks a suite command runs: a name, names, or None
    for all."""
    if args.command == "check":
        return args.name
    if args.command == "integrate":  # the sphere class of the symplectic form
        return "sphere_integral_mass"
    if args.command == "prequant":
        # each flag is named after the check group it selects
        groups = [g for g in ("commutators", "operators", "integrality") if getattr(args, g)]
        if not groups:
            raise ConfigError(
                "prequant needs at least one of --commutators, --integrality, --operators"
            )
        return [name for group in groups for name in GROUP_CHECKS[group]]
    return None


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

        if args.command == "emit-csv":
            print(f"wrote {emit_csv(args.what, config)}")
            return 0

        report = run_suite(config, only=_selection(args))
        if args.command == "integrate":
            (entry,) = report.checks
            details = entry["details"]
            print(
                f"integral={details['value']!r} mass={config.mass!r} "
                f"|difference|={entry['worst_error']:.3e}"
            )
            print(
                f"error_estimate={details['error_estimate']:.3e} "
                f"n_u={config.n_u} n_v={config.n_v}"
            )
            return report.exit_code

        _print_checks(report.checks)
        if args.command == "verify":
            out_dir = Path(config.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            report_path = out_dir / "report.json"
            report_path.write_text(report.to_json() + "\n")
            print(f"report written to {report_path}")
            print(f"suite {'PASSED' if report.all_passed else 'FAILED'} "
                  f"in {report.wall_time_seconds:.2f} s")
        return report.exit_code
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (EvaluationError, SingularSymplecticError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
