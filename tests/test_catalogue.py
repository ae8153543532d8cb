"""The check catalogue is declared once, and the group functions obey it.

``reports.GROUP_ROWS`` holds every check's name, default tolerance and
verdict rule.  The source guards below keep each name written there alone;
the calls below check that every group function, called directly, gives each
result its row's tolerance and judges it by its row's rule.
"""

import ast
from pathlib import Path

import pytest

import warpsymp
from warpsymp import suite
from warpsymp.hamiltonian import bracket_table, verify_hamiltonian_fields
from warpsymp.prequantum import (
    commutator_suite,
    curvature_section_check,
    geometric_operator_report,
    integrality_report,
    verify_curvature_potential,
)
from warpsymp.reports import FIXED, GROUP_ROWS, passes
from warpsymp.spacetime import (
    foliation_report,
    verify_gradient_relation,
    verify_observer,
    verify_omega_identities,
    verify_symplectic,
)
from warpsymp.suite import CHECK_CATALOGUE, GROUP_CHECKS, GroupInputs, RunConfig

PACKAGE = Path(warpsymp.__file__).resolve().parent
ROWS = {check.name: check for checks in GROUP_ROWS.values() for check in checks}

# Threshold parameters that may keep a numeric default, with the reason.
NUMERIC_DEFAULTS = {
    ("generalized_static", "closure_threshold"): (
        "flux_closure_hypothesis is the closure record a generalised model carries, "
        "not a catalogue check: the suite runs only the Schwarzschild model"
    ),
}


def parsed_sources():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def catalogue_lines():
    """The first and last line of the GROUP_ROWS assignment in reports.py."""
    tree = parsed_sources()["reports.py"]
    (node,) = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GROUP_ROWS"]
    ]
    return node.lineno, node.end_lineno


class TestDeclaredOnce:
    def test_each_name_is_written_once_in_the_catalogue(self):
        first, last = catalogue_lines()
        found = {name: [] for name in CHECK_CATALOGUE}
        for filename, tree in parsed_sources().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and node.value in found:
                    found[node.value].append((filename, node.lineno))
        assert len(found) == 37
        for name, places in found.items():
            assert len(places) == 1, (name, places)
            ((filename, line),) = places
            assert filename == "reports.py" and first <= line <= last, (name, places)

    def test_no_string_assembles_a_name(self):
        """No f-string starts with the beginning of a check name, and no
        literal is a name's prefix up to an underscore (``"bracket_"``)."""
        assembled = []
        for filename, tree in parsed_sources().items():
            nodes = list(ast.walk(tree))
            specs = {id(n.format_spec) for n in nodes if isinstance(n, ast.FormattedValue)}
            for node in nodes:
                if id(node) in specs:  # the "g" of f"{x:g}"
                    continue
                if isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
                    text = node.values[0].value
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    text = node.value if node.value.endswith("_") else None
                else:
                    continue
                if text and any(name.startswith(text) for name in CHECK_CATALOGUE):
                    assembled.append((filename, node.lineno, text))
        assert assembled == []

    def test_no_threshold_parameter_has_a_numeric_default(self):
        numeric = set()
        for tree in parsed_sources().values():
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                arguments = node.args.args + node.args.kwonlyargs
                defaults = [None] * (len(node.args.args) - len(node.args.defaults))
                defaults += node.args.defaults + node.args.kw_defaults
                for argument, default in zip(arguments, defaults):
                    if (
                        argument.arg.endswith("threshold")
                        and isinstance(default, ast.Constant)
                        and isinstance(default.value, (int, float))
                    ):
                        numeric.add((node.name, argument.arg))
        assert numeric == set(NUMERIC_DEFAULTS)

    def test_views_follow_the_rows(self):
        assert list(suite._RUNNERS) == list(GROUP_ROWS)
        assert CHECK_CATALOGUE == tuple(ROWS)
        assert suite.DEFAULT_TOLERANCES == {name: row.tolerance for name, row in ROWS.items()}


# Each group function called directly, at the inputs of a suite run; keyword
# arguments go to the function.
CALLS = {
    "gradient": lambda g, **kw: [verify_gradient_relation(g.model, g.identity_points, **kw)],
    "observer": lambda g, **kw: verify_observer(g.model, g.identity_points, **kw),
    "omega": lambda g, **kw: verify_omega_identities(g.model, g.identity_points, **kw),
    "foliation": lambda g, **kw: foliation_report(g.model, g.identity_points, **kw),
    "symplectic": lambda g, **kw: verify_symplectic(g.model, g.identity_points, **kw),
    "hamiltonian": lambda g, **kw: verify_hamiltonian_fields(g.model, g.identity_points, **kw),
    "bracket": lambda g, **kw: bracket_table(
        g.model, g.identity_points, jacobi_points=g.operator_points, **kw
    )[0],
    "sphere_integral": lambda g: suite._sphere_integral_checks(
        g, frozenset(GROUP_CHECKS["sphere_integral"])
    ),
    "curvature_potential": lambda g, **kw: [
        verify_curvature_potential(g.model, g.potential, g.identity_points, **kw)
    ],
    "curvature_sections": lambda g, **kw: [
        curvature_section_check(g.model, g.potential, g.sections, g.operator_points, **kw)
    ],
    "commutators": lambda g, **kw: commutator_suite(
        g.model, g.potential, g.sections, g.operator_points, **kw
    ),
    "operators": lambda g, **kw: geometric_operator_report(
        g.model, g.potential, g.sections, g.operator_points, **kw
    ),
    "integrality": lambda g: [integrality_report(g.model, g.quadrature)],
}

# group key, threshold parameter, the checks it serves when given
SERVED = [
    ("gradient", "threshold", {"gradient_relation"}),
    ("observer", "threshold", {"observer_unit_norm", "observer_orthogonality"}),
    ("omega", "threshold", {"flux_closure_relation", "flux_volume_identity"}),
    ("omega", "square_threshold", {"flux_wedge_square"}),
    ("foliation", "pfaffian_threshold", {"foliation_leaf_pfaffian"}),
    ("foliation", "volume_threshold", {"foliation_volume_form"}),
    ("symplectic", "threshold", {"closed_rescaled_flux", "symplectic_square_identity"}),
    ("symplectic", "potential_threshold", {"dual_flux_potential", "dual_flux_square"}),
    ("hamiltonian", "threshold", set(GROUP_CHECKS["hamiltonian"])),
    ("bracket", "relative_threshold", {"bracket_uv", "bracket_rt"}),
    ("bracket", "zero_threshold", {"bracket_cross_zeros", "bracket_antisymmetry"}),
    ("bracket", "jacobi_threshold", {"jacobi_identity"}),
    ("curvature_potential", "threshold", {"connection_curvature_potential"}),
    ("curvature_sections", "threshold", {"connection_curvature_sections"}),
    ("commutators", "relative_threshold", {"commutator_uv", "commutator_rt"}),
    (
        "commutators",
        "absolute_threshold",
        {"commutator_ur", "commutator_ut", "commutator_vr", "commutator_vt"},
    ),
    ("operators", "chain_threshold", set(GROUP_CHECKS["operators"])),
]


@pytest.fixture(scope="module")
def inputs():
    return GroupInputs(RunConfig(n_samples=10, n_sections=1))


def assert_judged_by_rows(results, key, thresholds):
    """The results are the group's checks in row order, each with its
    threshold from ``thresholds`` (else its row's tolerance) and the verdict
    of its row's rule."""
    assert [result.name for result in results] == list(GROUP_CHECKS[key])
    for result in results:
        row = ROWS[result.name]
        assert result.threshold == thresholds.get(result.name, row.tolerance), result.name
        if row.rule == FIXED:  # structural findings that hold, or report-only numbers
            assert result.passed is True, result.name
        else:
            assert result.passed == passes(result.worst_error, result.threshold, row.rule)


def test_every_group_is_called():
    assert list(CALLS) == list(GROUP_ROWS)


@pytest.mark.parametrize("key", list(CALLS))
def test_default_thresholds_are_the_rows(inputs, key):
    results = CALLS[key](inputs)
    assert_judged_by_rows(results, key, {})
    assert all(result.passed for result in results if result.assertable)


@pytest.mark.parametrize(
    "key, parameter, served", SERVED, ids=[f"{key}-{parameter}" for key, parameter, _ in SERVED]
)
def test_an_explicit_threshold_serves_the_checks_it_names(inputs, key, parameter, served):
    """A threshold that is given applies to every check its parameter
    serves, and to no other; each verdict follows it by the row's rule."""
    results = CALLS[key](inputs, **{parameter: 0.5})
    assert_judged_by_rows(results, key, dict.fromkeys(served, 0.5))


def test_every_judged_check_has_a_threshold_parameter():
    """Each BELOW or ABOVE check but the sphere integrals' is served by a
    threshold parameter of its group function."""
    served = set().union(*(names for _, _, names in SERVED))
    judged = {name for name, row in ROWS.items() if row.rule != FIXED}
    assert judged - served == set(GROUP_CHECKS["sphere_integral"])
