"""Guards on what importing and running the command line loads.

Generating dataclass methods costs start-up time in every command, so only
the records that need dataclass machinery (``dataclasses.replace`` on the
model, the mutable configuration and results) are dataclasses.  Expression
nodes keep their fields, and nothing else, in the instance dict: the
benchmark tracer reads a node's fields through ``vars``.  The commands
draw their sample points and test sections from the package's own stream,
so none of them imports ``numpy.random`` and the extension modules and
OpenSSL bindings that it loads; and they compute their Gauss-Legendre rules
in the package, so none imports ``numpy.polynomial`` either.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import warpsymp
from warpsymp import expressions as ex

SRC = Path(warpsymp.__file__).resolve().parents[1]

LIST_DATACLASSES = """
import dataclasses, inspect, json, sys
import warpsymp.cli
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
with tempfile.TemporaryDirectory() as out:
    codes = [
        main(["verify", "--samples", "20", "--sections", "3", "--out", out]),
        main(["check", "hamiltonian_u", "--samples", "10"]),
        main(["prequant", "--commutators", "--sections", "1"]),
        main(["integrate", "--nu", "8", "--nv", "16"]),
    ]
loaded = {name: name in sys.modules for name in ("numpy.random", "numpy.polynomial")}
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
    ex.power(ex.R, Fraction(1, 2)),
    ex.exp(ex.U),
    ex.log(ex.R),
    ex.sin(ex.U),
    ex.cos(ex.U),
]


def test_cli_import_defines_only_the_kept_dataclasses():
    completed = subprocess.run(
        [sys.executable, "-c", LIST_DATACLASSES],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    found = json.loads(completed.stdout)
    assert found == sorted(["CheckResult", "RunConfig", "SpacetimeModel", "SuiteReport"])


def test_commands_do_not_import_numpy_random():
    completed = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "numpy.random": False, "numpy.polynomial": False}


def test_every_node_kind_is_covered():
    assert {type(node) for node in NODES} == set(ex.Expression.__subclasses__())


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_node_dict_holds_exactly_its_fields(node):
    node.diff("u")  # fills the derivative memo
    assert list(vars(node)) == list(node._fields)
    assert type(node)(*vars(node).values()) == node
