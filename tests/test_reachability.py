"""Every function in ``src/`` is reached by some command, or an allow-list
row says why it is kept.

The walk runs the commands of ``WALK`` through ``cli.main`` in one fresh
interpreter under ``sys.setprofile`` and records the code object of every
Python call, the package's import included.  It needs a fresh interpreter:
``cli.main`` freezes the heap, and the expression intern table and each
node's derivative memo live for the whole process, so a node built by an
earlier test would be found in the table and a command would not call the
code that builds it.  Run as a script (``python tests/test_reachability.py
OUT_DIR``, with the package importable) the module makes the walk and prints
the reached code positions as JSON.

Every ``def`` and lambda in ``src/`` is read from the AST and matched to the
code objects by file and first line; a decorated function's code starts at
its first decorator.  A function that no command reaches must be deleted or
named in ``ALLOWED`` with its reason, and a row goes when its function is
reached or deleted.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "warpsymp"

# argv of each walked command, with the exit code it must give: every
# command kind, the default, Weil and both refused-mass configs, each CSV
# kind, the help, and a usage, a configuration and an i/o error.
WALK = (
    (("verify", "--out", "{out}"), 0),
    (("verify", "--scale-mode", "weil", "--out", "{out}"), 0),
    (("verify", "--mass", "1e80", "--out", "{out}"), 1),
    (("verify", "--mass", "1e-200", "--out", "{out}"), 2),
    (("integrate",), 0),
    (("prequant", "--commutators", "--operators", "--integrality"), 0),
    (("check", "gradient_relation"), 0),
    (("check", "gradient_relation", "--config", "{out}/walk.cfg"), 0),
    (("emit-csv", "bracket_grid", "--out", "{out}"), 0),
    (("emit-csv", "omega_coefficient", "--out", "{out}"), 0),
    (("emit-csv", "eigen_residual", "--out", "{out}"), 0),
    (("emit-csv", "integral_convergence", "--out", "{out}"), 0),
    (("-h",), 0),
    (("bogus",), 2),
    (("verify", "--samples", "x"), 2),
    (("verify", "--config", "{out}/missing.cfg"), 2),
)

GUARD = "immutability guard: raises on assignment, which no command attempts"
REPR = "repr, for interactive use and test failures"
ERROR_TEXT = "error text: a node prints itself in an EvaluationError message"
ITEM_3 = "kept for ROADMAP item 3: the models beyond Schwarzschild evaluate exp and ln"
TRACER = "perfbench/tracer.py wraps it; it goes with the tracer's re-sync (ROADMAP item 2)"
GATE = "tests/test_acceptance.py, the gate, imports or calls it"

# "module.qualname" -> why it is kept although no command reaches it.  A
# lambda is named by its source, inside the scope it is written in.
ALLOWED = {
    "expressions.Immutable.__setattr__": GUARD,
    "expressions.Expression.__repr__": REPR,
    "expressions.Expression.evaluate": f"{GATE}; {TRACER}",
    "expressions.Expression.__str__": "str() of a node is its prefix text, as tests print it",
    "expressions.Constant.to_prefix": ERROR_TEXT,
    "expressions.Parameter.to_prefix": ERROR_TEXT,
    "expressions._overflowing_power": "error path: a power that overflows at some point",
    "expressions._periodic.<locals>.<lambda x: math.nan if math.isinf(x) else function(x)>": (
        "error path: sin or cos of an infinite argument"
    ),
    "expressions._least": "error text: the least argument of a log of a non-positive value",
    "expressions.Exp._apply": ITEM_3,
    "expressions.Exp._rule": ITEM_3,
    "expressions.Log._apply": ITEM_3,
    "exterior.KForm.evaluate_at": TRACER,
    "exterior.KForm.max_abs_at": TRACER,
    "exterior.VectorField.evaluate_at": f"{GATE}; {TRACER}",
    "exterior.lie_bracket": "kept for ROADMAP item 8",
    "exterior.sharp": "kept for ROADMAP item 3: generalized_static builds its field with it",
    "hamiltonian.hamiltonian_at": f"{GATE}; {TRACER}",
    "prequantum.ConnectionPotential.gauge_shifted": "the gauge-covariance tests shift with it",
    "prequantum.Section.evaluate_at": f"{GATE}; {TRACER}",
    "prequantum.Section.magnitude_at": TRACER,
    "prequantum.apply_operator": GATE,
    "prequantum.Box.default": GATE,
    "prequantum.box_l2_norm": f"{GATE}, through radial_eigen_residual",
    "prequantum.radial_eigen_residual": GATE,
    "spacetime.generalized_static": "kept for ROADMAP item 3",
    "suite.SuiteReport.body_json": f"{GATE} (criterion 12); {TRACER}",
}


def definitions() -> dict:
    """(file, first line) -> "module.qualname" of every def and lambda in
    the package.  Fails on two definitions that share a name or a first
    line, which the walk could not tell apart."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{scope}{child.name}.")
                continue
            if isinstance(child, ast.Lambda):
                qualname = f"{scope}<{ast.unparse(child)}>"
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = scope + child.name
            else:
                visit(child, path, scope)
                continue
            decorators = getattr(child, "decorator_list", ())
            key = (str(path), min([child.lineno, *(d.lineno for d in decorators)]))
            name = f"{path.stem}.{qualname}"
            assert key not in found, f"{found[key]} and {name} start on one line"
            assert name not in found.values(), f"two definitions are named {name}"
            found[key] = name
            visit(child, path, f"{qualname}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def walk(out: str) -> list:
    """Run WALK in this interpreter; return the file of the ``cli`` module
    run, each command's exit code, and the (file, first line) of every
    Python function called."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    Path(out, "walk.cfg").write_text("samples = 12\n")
    codes = []
    sys.setprofile(record)
    try:
        from warpsymp import cli

        for argv, _ in WALK:
            output = io.StringIO()
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                try:
                    codes.append(cli.main([arg.format(out=out) for arg in argv]))
                except SystemExit as stop:
                    codes.append(stop.code)
    finally:
        sys.setprofile(None)
    reached = sorted({(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called})
    return [cli.__file__, codes, reached]


def test_every_function_is_reached_or_allowed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    cli_file, codes, reached = json.loads(completed.stdout)
    assert Path(cli_file).resolve() == PACKAGE / "cli.py"
    assert codes == [code for _, code in WALK]

    defined = definitions()
    names = set(defined.values())
    reached = {tuple(position) for position in reached}
    unreached = {name for key, name in defined.items() if key not in reached}
    unlisted = sorted(unreached - ALLOWED.keys())
    assert not unlisted, f"no command reaches {unlisted}: delete them, or allow-list them"
    now_reached = sorted(ALLOWED.keys() & (names - unreached))
    assert not now_reached, f"a command reaches {now_reached}: drop their rows"
    gone = sorted(ALLOWED.keys() - names)
    assert not gone, f"{gone} no longer exist: drop their rows"
    assert all(reason.strip() for reason in ALLOWED.values())


if __name__ == "__main__":
    print(json.dumps(walk(sys.argv[1])))
