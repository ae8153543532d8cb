"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``warpsymp`` modules from outside
the package: nothing under ``src/`` knows it is being traced.  Each call of a
wrapped function opens a span (id, name, start, end, parent, request id).
Closed spans are folded into per-name totals at once; spans of the hot
pointwise layers are folded only, the rest are also kept in memory so the
benchmark can write them out when its run ends.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested within one thread, so the covered time is the sum
of the children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Layer name -> (module, attribute path) of the functions it covers.
LAYERS = {
    "expressions.evaluate": [("expressions", "Expression.evaluate")],
    "expressions.diff": [("expressions", "Expression.diff")],
    "exterior.ops": [
        ("exterior", "wedge"),
        ("exterior", "exterior_derivative"),
        ("exterior", "interior_product"),
        ("exterior", "hodge_star"),
        ("exterior", "pairing"),
    ],
    "exterior.form_eval": [
        ("exterior", "KForm.max_abs_at"),
        ("exterior", "KForm.evaluate_at"),
        ("exterior", "VectorField.evaluate_at"),
    ],
    "spacetime.model": [("spacetime", "schwarzschild")],
    "spacetime.checks": [
        ("spacetime", "verify_gradient_relation"),
        ("spacetime", "verify_observer"),
        ("spacetime", "verify_omega_identities"),
        ("spacetime", "verify_symplectic"),
        ("spacetime", "foliation_report"),
    ],
    "hamiltonian.field": [("hamiltonian", "hamiltonian_field")],
    "hamiltonian.bracket": [("hamiltonian", "poisson_bracket")],
    "hamiltonian.lu_solve": [("hamiltonian", "hamiltonian_at")],
    "hamiltonian.quadrature": [("hamiltonian", "sphere_sum")],
    "prequantum.operator_build": [
        ("prequantum", "prequantum_operator"),
        ("prequantum", "PrequantumOperator.apply"),
        ("prequantum", "PrequantumOperator.derivative_part"),
        ("prequantum", "covariant_derivative"),
    ],
    "prequantum.section_eval": [
        ("prequantum", "Section.evaluate_at"),
        ("prequantum", "Section.magnitude_at"),
    ],
    "sampling": [("sampling", "sample_points")],
    "suite.run": [("suite", "run_suite")],
    "suite.report": [("suite", "SuiteReport.body_json"), ("suite", "SuiteReport.to_json")],
    "cli.main": [("cli", "main")],
}

# Check-group name -> function that run_suite calls for it.  Group spans are
# opened only for calls made through the suite module's own bindings.
GROUPS = {
    "gradient": "verify_gradient_relation",
    "observer": "verify_observer",
    "omega": "verify_omega_identities",
    "foliation": "foliation_report",
    "symplectic": "verify_symplectic",
    "hamiltonian": "verify_hamiltonian_fields",
    "bracket": "bracket_table",
    "sphere_integral": "surface_integral",
    "curvature_potential": "verify_curvature_potential",
    "curvature_sections": "curvature_section_check",
    "commutators": "commutator_suite",
    "operators": "geometric_operator_report",
    "integrality": "integrality_report",
}
GROUP_PREFIX = "suite.group."

# Pointwise layers called up to millions of times: folded, never kept.
HOT = frozenset(
    {"expressions.evaluate", "expressions.diff", "exterior.form_eval", "prequantum.section_eval"}
)


class Tracer:
    def __init__(self, request_id="0", clock=time.perf_counter):
        self.request_id = request_id
        self.clock = clock
        self._stack = []  # open spans: [span id, name, start, child seconds]
        self._next_id = 1
        self.spans = []  # kept closed spans: (id, name, start, end, parent, request)
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()  # work counters recorded at span boundaries
        self.roots = {}  # id(root) -> [root, evaluate calls]

    def enter(self, name):
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self):
        span_id, name, start, child_s = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if name not in HOT:
            self.spans.append((span_id, name, start, end, parent, self.request_id))

    def wrap(self, fn, name, after=None):
        """Return fn wrapped in a span; ``after(args, kwargs, result)`` runs
        outside the span to record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


def install(tracer, package="warpsymp"):
    """Wrap every target of LAYERS and GROUPS; return the targets not found.

    A module-level function is rebound in every package module that imported
    it by name, so callers reach the wrapper whichever binding they use.
    """
    modules = {
        name.rsplit(".", 1)[-1]: module
        for name, module in sys.modules.items()
        if name.startswith(package + ".") and module is not None
    }
    expression_type = getattr(modules.get("expressions"), "Expression", None)
    afters = {
        "expressions.evaluate": lambda args, kwargs, result: _note_root(tracer, args[0]),
        "sampling": lambda args, kwargs, result: tracer.counts.update(
            {"sampling.points": len(result)}
        ),
    }
    absent = []
    for layer, targets in LAYERS.items():
        for module_name, path in targets:
            owner, attribute = _resolve(modules.get(module_name), path)
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                absent.append(f"{module_name}.{path}")
                continue
            after = afters.get(layer)
            if layer == "hamiltonian.quadrature":
                after = _quadrature_counter(tracer, original)
            wrapped = tracer.wrap(original, layer, after)
            if inspect.isclass(owner):
                setattr(owner, attribute, wrapped)
                continue
            for module in modules.values():
                if getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapped)
    suite = modules.get("suite")
    for group, function_name in GROUPS.items():
        bound = getattr(suite, function_name, None)
        if bound is None:
            absent.append(f"suite.{function_name}")
            continue
        setattr(suite, function_name, tracer.wrap(bound, GROUP_PREFIX + group))
    return absent, expression_type


def _note_root(tracer, root):
    entry = tracer.roots.get(id(root))
    if entry is None:
        tracer.roots[id(root)] = [root, 1]
    else:
        entry[1] += 1


def _quadrature_counter(tracer, sphere_sum):
    signature = inspect.signature(sphere_sum)

    def after(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        tracer.counts["hamiltonian.quadrature.nodes"] += bound["n_u"] * bound["n_v"]

    return after


# ---------------------------------------------------------------------------
# Node-count probes
# ---------------------------------------------------------------------------


def _fields(node):
    if dataclasses.is_dataclass(node):
        return [getattr(node, f.name) for f in dataclasses.fields(node)]
    return list(vars(node).values())


def node_counts(roots, expression_type):
    """Sizes of the evaluated expression DAGs.

    ``roots`` is a list of (root, evaluate calls).  Returns nodes_evaluated
    (each call's DAG size, summed), dag_nodes (nodes reached, distinct by
    identity) and distinct_nodes (distinct by structure).  Structure ids are
    assigned bottom-up through an identity memo, so no node is hashed
    structurally: the dataclass hash is not cached and would walk the whole
    unfolded tree at every level.
    """
    children = {}  # id(node) -> child nodes
    structure = {}  # id(node) -> structure id
    table = {}  # (type, scalar fields, child structure ids) -> structure id

    def visit(root):
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in structure:
                continue
            if not expanded:
                kids = []
                scalars = []
                for value in _fields(node):
                    if isinstance(value, expression_type):
                        kids.append(value)
                    elif isinstance(value, tuple) and any(
                        isinstance(item, expression_type) for item in value
                    ):
                        kids.extend(value)
                    else:
                        scalars.append(value)
                children[key] = (kids, tuple(scalars))
                stack.append((node, True))
                stack.extend((kid, False) for kid in kids if id(kid) not in structure)
            else:
                kids, scalars = children[key]
                signature = (type(node).__name__, scalars, tuple(structure[id(k)] for k in kids))
                structure[key] = table.setdefault(signature, len(table))

    def dag_size(root):
        seen = {id(root)}
        stack = [root]
        while stack:
            for kid in children[id(stack.pop())][0]:
                if id(kid) not in seen:
                    seen.add(id(kid))
                    stack.append(kid)
        return len(seen)

    nodes_evaluated = 0
    for root, calls in roots:
        visit(root)
        nodes_evaluated += calls * dag_size(root)
    return {
        "expressions.nodes_evaluated": nodes_evaluated,
        "expressions.dag_nodes": len(structure),
        "expressions.distinct_nodes": len(table),
    }
