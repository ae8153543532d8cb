"""Guard on the classes that importing the command line defines.

Generating dataclass methods costs start-up time in every command, so only
the records that need dataclass machinery (``dataclasses.replace`` on the
model, the mutable configuration and results) are dataclasses.  Expression
nodes keep their fields, and nothing else, in the instance dict: the
benchmark tracer reads a node's fields through ``vars``.
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


def test_every_node_kind_is_covered():
    assert {type(node) for node in NODES} == set(ex.Expression.__subclasses__())


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_node_dict_holds_exactly_its_fields(node):
    node.diff("u")  # fills the derivative memo
    assert list(vars(node)) == list(node._fields)
    assert type(node)(*vars(node).values()) == node
