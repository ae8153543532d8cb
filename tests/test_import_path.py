"""Guards on what importing and running the command line loads.

Every command is a fresh process, so whatever the import path loads is paid
on every run.  The package's records are plain classes and named tuples, not
dataclasses, so no command imports ``dataclasses`` (and ``copy``) or
generates methods at start-up.  The named tuples subclass
``collections.namedtuple`` classes, not ``typing.NamedTuple``, so no command
imports ``typing``; the scripts below run under ``python3 -S``, because a
host's site hooks may load ``typing`` before any command does.  Exponents
are ``expressions.Rational`` pairs, so no command imports ``fractions`` (and
``decimal`` with its C library).  Expression nodes keep their fields, and
nothing else, in the instance dict: the benchmark tracer reads a node's
fields through ``vars``.
The commands draw their sample points and test sections from the standard
library's ``random``, so none of them imports ``numpy.random`` and the
extension modules and OpenSSL bindings that it loads; and they compute their
Gauss-Legendre rules in the package, so none imports ``numpy.polynomial``
either.  They evaluate, solve and integrate with the standard library, so
none imports ``numpy`` at all: its import was the largest start-up cost of a
command (about 80 ms of a verify process's set-up, and 14 MB of its peak
RSS), and the batches the commands evaluate are small enough that numpy's
per-call overhead outweighs its per-element speed.  The command line is
read off the package's own tables, so no command imports ``argparse`` or
the ``gettext`` and ``locale`` it loads: that import, the parser build and
the parse took about 8 ms of each command, more than the 6 ms of checks
that ``integrate --nu 128 --nv 256`` runs.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import warpsymp
from warpsymp import expressions as ex
from warpsymp.exterior import KForm, VectorField
from warpsymp.hamiltonian import IntegralResult
from warpsymp.prequantum import Box, PrequantumOperator, Section
from warpsymp.spacetime import SpacetimeModel
from warpsymp.suite import Check, SuiteReport

SRC = Path(warpsymp.__file__).resolve().parents[1]

# modules that no command may load
UNLOADED = (
    "numpy", "numpy.random", "numpy.polynomial", "fractions", "decimal", "dataclasses", "copy",
    "argparse", "gettext", "locale", "typing",
)

LIST_DATACLASSES = """
import inspect, json, sys
import warpsymp.cli
loaded = [name for name in %r if name in sys.modules]
import dataclasses
print(json.dumps(loaded))
print(json.dumps(sorted(
    cls.__qualname__
    for name, module in list(sys.modules.items())
    if name.startswith("warpsymp")
    for cls in vars(module).values()
    if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)
)))
"""

RUN_COMMANDS = """
import json, sys, tempfile
from warpsymp.cli import main
from warpsymp.suite import CSV_KINDS
with tempfile.TemporaryDirectory() as out:
    codes = [
        main(["verify", "--samples", "20", "--sections", "3", "--out", out]),
        main(["check", "hamiltonian_u", "--samples", "10"]),
        main(["prequant", "--commutators", "--sections", "1"]),
        main(["integrate", "--nu", "8", "--nv", "16"]),
        *(main(["emit-csv", what, "--out", out]) for what in CSV_KINDS),
    ]
loaded = {name: name in sys.modules for name in %r}
print(json.dumps({"codes": codes, **loaded}))
"""

# one node of each kind
NODES = [
    ex.const(2.0),
    ex.U,
    ex.M,
    ex.Parameter("p0"),
    ex.add(ex.U, ex.V),
    ex.mul(ex.U, ex.V),
    ex.quotient(ex.U, ex.R),
    ex.power(ex.R, ex.Rational(1, 2)),
    ex.exp(ex.U),
    ex.log(ex.R),
    ex.sin(ex.U),
    ex.cos(ex.U),
]


def run_python(code):
    """Run ``code`` in a fresh interpreter without the site module."""
    completed = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_cli_import_defines_no_dataclass():
    loaded, dataclasses = map(json.loads, run_python(LIST_DATACLASSES % (UNLOADED,))[-2:])
    assert loaded == []
    assert dataclasses == []


def test_commands_do_not_import_numpy_random():
    """Nor ``numpy`` itself, ``numpy.polynomial``, ``fractions``,
    ``decimal``, ``dataclasses``, ``copy``, ``argparse``, ``gettext``,
    ``locale`` or ``typing``: every command runs in one fresh interpreter."""
    result = json.loads(run_python(RUN_COMMANDS % (UNLOADED,))[-1])
    assert result == {"codes": [0] * 8, **dict.fromkeys(UNLOADED, False)}


def test_every_node_kind_is_covered():
    assert {type(node) for node in NODES} == set(ex.Expression.__subclasses__())


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_node_dict_holds_exactly_its_fields(node):
    node.diff("u")  # fills the derivative memo
    assert list(vars(node)) == list(node._fields)
    assert type(node)(*vars(node).values()) == node


# every record of the package, with its fields
RECORDS = [
    (ex.Rational, ("numerator", "denominator")),
    (KForm, ("degree", "terms")),
    (VectorField, ("components",)),
    (IntegralResult, ("value", "error_estimate")),
    (Section, ("re", "im")),
    (PrequantumOperator, ("source", "field", "paired", "potential", "hbar", "hermitian")),
    (Box, ("u", "v", "r", "t")),
    (
        SpacetimeModel,
        (
            "mass", "warp", "metric", "gravitational_field", "observer_field", "lapse",
            "volume_form", "flux_form", "dual_flux_form", "symplectic_form", "closure_check",
            "darboux",
        ),
    ),
    (Check, ("name", "tolerance", "rule", "assertable")),
    (SuiteReport, ("body", "wall_time_seconds")),
]


def test_every_record_is_covered():
    modules = [
        importlib.import_module(f"warpsymp.{module.name}")
        for module in pkgutil.iter_modules(warpsymp.__path__)
    ]
    records = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__
    }
    assert records == {record for record, _ in RECORDS}


@pytest.mark.parametrize("record, fields", RECORDS, ids=[record.__name__ for record, _ in RECORDS])
def test_record_is_a_slotted_named_tuple(record, fields):
    assert record._fields == fields
    assert record.__slots__ == ()
    value = record._make(range(len(fields)))
    assert not hasattr(value, "__dict__")
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    changed = value._replace(**{fields[0]: -1})
    assert type(changed) is record and changed[0] == -1 and changed[1:] == value[1:]
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, fields[0], -1)
