"""Command-line entry point: ``warpsymp COMMAND [NAME|WHAT] [--FLAG VALUE]...``.

The commands, prequant's group switches and the flags are the tables
COMMANDS, SWITCHES and FLAGS below, and ``warpsymp -h`` lists them.  Every
command takes one flag per configuration key (``--mass``, ``--scale-mode``,
...), ``--config`` and ``--tolerance``; flags override values from the
optional flat key-value config file.  ``parse_args`` reads the command line
off the tables and keeps each value a raw string for ``config_from_sources``,
which parses flag and file values alike.  Every command but ``emit-csv`` is
one suite run over a selection of the catalogue.  Exit codes: 0 all
assertable checks pass, 1 a check failed, 2 configuration, usage (raised as
``SystemExit(2)``) or i/o error, or a model that cannot be evaluated at the
sampled points.
"""

from __future__ import annotations

import gc
import sys
import types
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


# command -> (help text, its operand's metavar and choices, or None)
COMMANDS = {
    "verify": ("run the full check catalogue, write report.json", None),
    "check": ("compute only check NAME, print what verify reports", ("NAME", CHECK_CATALOGUE)),
    "integrate": ("sphere integral of the symplectic form", None),
    "prequant": ("the reports of the check groups switched on (one or more)", None),
    "emit-csv": (f"plot-data CSV: {', '.join(CSV_KINDS)}", ("WHAT", CSV_KINDS)),
}
# prequant's switches, each named after the check group it selects
SWITCHES = {
    "commutators": "prequant: six coordinate commutators",
    "operators": "prequant: geometric operator identities",
    "integrality": "prequant: sphere-class integrality report",
}
# every command's flags: --config, one per config key, repeatable --tolerance
FLAGS = {
    "config": "flat key = value configuration file",
    **{key: text for key, (_, _, text) in CONFIG_KEYS.items()},
    "tolerance": "NAME=VALUE overrides one check threshold (repeatable)",
}
USAGE = "usage: warpsymp COMMAND [NAME|WHAT] [--FLAG VALUE | --FLAG=VALUE]..."


def _usage_error(message):
    print(f"{USAGE}\nwarpsymp: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    """Read a command line against COMMANDS, SWITCHES and FLAGS: the command,
    its operand (NAME or WHAT, else None), the prequant switches given and
    the flag values as raw strings, under their config-file keys (``mass``,
    ``tolerance.NAME``, ...) and ``config``.  Flags are spelled in full,
    before or after the operand; no value starts with ``--``.  ``-h`` prints
    the help and exits 0, a usage error exits 2, and a ``--tolerance`` value
    without ``=`` raises ConfigError."""
    if "-h" in argv or "--help" in argv:
        rows = [(f"{c} {o[0]}" if o else c, t) for c, (t, o) in COMMANDS.items()]
        rows += [(f"--{k.replace('_', '-')}", t) for k, t in {**SWITCHES, **FLAGS}.items()]
        print("\n".join([USAGE, *(f"  {name:18}{text}" for name, text in rows)]))
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(f"expected a command, one of {', '.join(COMMANDS)}")
    operand = COMMANDS[argv[0]][1]
    args = types.SimpleNamespace(command=argv[0], operand=None, switches=set(), values={})
    keys = {f"--{key.replace('_', '-')}": key for key in FLAGS}
    rest = iter(argv[1:])
    for arg in rest:
        flag, has_value, value = arg.partition("=")
        if not arg.startswith("--"):
            if operand is None or args.operand is not None:
                _usage_error(f"unexpected argument {arg!r}")
            if arg not in operand[1]:
                _usage_error(f"invalid {operand[0]} {arg!r}; choose from {', '.join(operand[1])}")
            args.operand = arg
        elif args.command == "prequant" and flag[2:] in SWITCHES and not has_value:
            args.switches.add(flag[2:])
        elif flag not in keys:
            _usage_error(f"unrecognized argument {arg!r} for {args.command}")
        else:
            value = value if has_value else next(rest, "--")
            if value.startswith("--"):  # also at the end of the line
                _usage_error(f"{flag} expects a value")
            if flag == "--tolerance":
                name, has_value, value = value.partition("=")
                if not has_value:
                    raise ConfigError(f"--tolerance expects NAME=VALUE, got {name!r}")
                args.values[f"tolerance.{name.strip()}"] = value.strip()
            else:
                args.values[keys[flag]] = value
    if operand is not None and args.operand is None:
        _usage_error(f"{args.command} needs {operand[0]}")
    return args


def _config_from_args(args) -> RunConfig:
    overrides = dict(args.values)
    path = overrides.pop("config", None)
    if path == "":
        raise ConfigError("--config expects a file path, got an empty value")
    return config_from_sources(load_config_file(path) if path is not None else {}, overrides)


def _selection(args):
    """The catalogue checks a suite command runs: a name, names, or None
    for all."""
    if args.command == "check":
        return args.operand
    if args.command == "integrate":  # the sphere class of the symplectic form
        return GROUP_CHECKS["sphere_integral"][0]
    if args.command == "prequant":
        groups = [g for g in SWITCHES if g in args.switches]
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        config = _config_from_args(args)

        if args.command == "emit-csv":
            print(f"wrote {emit_csv(args.operand, config)}")
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
