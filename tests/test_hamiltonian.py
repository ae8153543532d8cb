"""Hamiltonian fields, Poisson brackets, and sphere quadrature."""

import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from warpsymp import expressions as ex
from warpsymp import hamiltonian
from warpsymp.exterior import KForm, exterior_derivative, interior_product
from warpsymp.hamiltonian import (
    BlockStructureError,
    QuadratureSpec,
    bracket_table,
    coordinate_bracket_references,
    coordinate_field_references,
    gauss_legendre,
    hamiltonian_at,
    hamiltonian_field,
    hamiltonian_values,
    poisson_bracket,
    sphere_sum,
    surface_integral,
    verify_hamiltonian_fields,
)
from warpsymp.spacetime import schwarzschild

FOUR_PI = 4.0 * math.pi


def random_functions(count, seed):
    """Smooth polynomial/trig test functions on the chart."""
    rng = random.Random(seed)
    atoms = [
        ex.U,
        ex.V,
        ex.quotient(ex.R, ex.const(3.0)),
        ex.quotient(ex.T, ex.const(3.0)),
        ex.sin(ex.U),
        ex.cos(ex.V),
        ex.power(ex.quotient(ex.R, ex.const(5.0)), 2),
        ex.sin(ex.T),
    ]
    out = []
    for _ in range(count):
        a, b, c = (atoms[rng.randrange(len(atoms))] for _ in range(3))
        coefficient = ex.const(rng.uniform(-2.0, 2.0))
        out.append(ex.add(ex.mul(coefficient, a, b), c))
    return out


class TestHamiltonianField:
    def test_angular_closed_form(self, model, equator_point):
        """H_u = (4 pi / (m sin u)) d_v; coefficient 4 pi at the equator."""
        field = hamiltonian_field(ex.U, model)
        values = field.evaluate_at(equator_point)
        assert values[1] == pytest.approx(FOUR_PI, rel=1e-14)
        assert values[0] == values[2] == values[3] == 0.0

    def test_time_closed_form(self, model):
        """H_t = -(4 pi r^2/m)(1-2m/r)^(1/2) d_r; value at (m=1, r=4)."""
        point = dict(u=1.0, v=1.0, r=4.0, t=0.0, m=1.0)
        field = hamiltonian_field(ex.T, model)
        assert field.evaluate_at(point)[2] == pytest.approx(-142.17225402106772, rel=1e-13)

    def test_constant_gives_zero_field(self, model):
        field = hamiltonian_field(ex.const(4.25), model)
        assert all(ex.is_zero(component) for component in field.components)

    def test_defining_relation_for_random_functions(self, model, points):
        """i_H sympl + df = 0 pointwise below 1e-10 for 20 random functions."""
        worst = 0.0
        for f in random_functions(20, seed=303):
            field = hamiltonian_field(f, model)
            residual = interior_product(field, model.symplectic_form) + exterior_derivative(
                KForm.scalar(f)
            )
            worst = max(worst, max(residual.max_abs_at(p) for p in points))
        assert worst < 1e-10

    def test_numeric_solve_matches_symbolic(self, model, points):
        for f in random_functions(5, seed=304):
            symbolic = hamiltonian_field(f, model)
            for point in points[:6]:
                numeric = hamiltonian_at(f, model, point)
                expected = np.array(symbolic.evaluate_at(point))
                scale = max(1.0, float(np.max(np.abs(expected))))
                assert float(np.max(np.abs(numeric - expected))) < 1e-10 * scale

    def test_batched_solve_matches_pointwise_solves(self, model, points):
        """The batched solve gives each point's own solve bit for bit, and
        LAPACK's solve of the same system to roundoff."""
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        upper = [model.symplectic_form.coefficient(pair) for pair in pairs]
        for f in random_functions(3, seed=305):
            (batched,) = hamiltonian_values([f], model, points)
            for point, got in zip(points, batched):
                numeric = np.zeros((4, 4))
                for (i, j), entry in zip(pairs, upper):
                    numeric[i, j] = entry.evaluate(point)
                    numeric[j, i] = -numeric[i, j]
                gradient = np.array([f.diff(name).evaluate(point) for name in "uvrt"])
                expected = np.linalg.solve(numeric.T, -gradient)
                assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
                assert got == hamiltonian_at(f, model, point)

    @pytest.mark.parametrize("seed", range(5))
    def test_pfaffian_solve_matches_lapack(self, seed):
        """On random nondegenerate antisymmetric matrices (the constant
        forms sum a_ij du^i ^ du^j), the Pfaffian solve agrees with LAPACK's
        within a few ulps times the condition number."""
        rng = np.random.default_rng(seed)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        point = dict(u=1.0, v=1.0, r=4.0, t=0.0, m=1.0)
        solved = 0
        while solved < 20:
            upper = rng.uniform(-2.0, 2.0, 6)
            p01, p02, p03, p12, p13, p23 = upper
            if abs(p01 * p23 - p02 * p13 + p03 * p12) < 0.1:
                continue
            matrix = np.zeros((4, 4))
            for (i, j), x in zip(pairs, upper):
                matrix[i, j], matrix[j, i] = x, -x
            form = KForm.from_terms(2, {pair: ex.const(x) for pair, x in zip(pairs, upper)})
            constant = schwarzschild(1.0)._replace(symplectic_form=form)
            weights = rng.uniform(-1.0, 1.0, 4)
            f = ex.add(*[ex.mul(ex.const(c), x) for c, x in zip(weights, ex.COORDINATES)])
            expected = np.linalg.solve(matrix.T, -weights)
            got = np.array(hamiltonian_at(f, constant, point))
            bound = 8 * EPS * np.linalg.cond(matrix) * np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= bound
            solved += 1

    def test_zero_pfaffian_raises(self, model):
        """A constant form of rank 2 has Pfaffian 0 at every point."""
        from warpsymp.hamiltonian import SingularSymplecticError

        degenerate = model._replace(symplectic_form=KForm.from_terms(2, {(0, 1): ex.ONE}))
        point = dict(u=1.0, v=1.0, r=4.0, t=0.0, m=1.0)
        with pytest.raises(SingularSymplecticError):
            hamiltonian_values([ex.U], degenerate, point)

    def test_numeric_solve_matches_displays(self, model, points):
        results = verify_hamiltonian_fields(model, points, seed=901)
        assert [r.name for r in results] == [
            "hamiltonian_u",
            "hamiltonian_v",
            "hamiltonian_r",
            "hamiltonian_t",
        ]
        assert all(r.passed for r in results)

    def test_block_structure_guard(self, model):
        broken = model._replace(symplectic_form=KForm.from_terms(2, {(0, 2): ex.ONE}))
        with pytest.raises(BlockStructureError):
            hamiltonian_field(ex.U, broken)

    def test_singular_matrix_reports_the_point(self, model):
        """A 2-form degenerating at a point makes the numeric solve fail
        there, with the point named in the error."""
        from warpsymp.hamiltonian import SingularSymplecticError

        degenerate = model._replace(
            symplectic_form=KForm.from_terms(
                2, {(0, 1): ex.V - ex.const(math.pi), (2, 3): ex.ONE}
            ),
        )
        bad_point = dict(u=1.0, v=math.pi, r=4.0, t=0.0, m=1.0)
        with pytest.raises(SingularSymplecticError) as excinfo:
            hamiltonian_at(ex.U, degenerate, bad_point)
        assert "'r': 4.0" in str(excinfo.value)
        good_point = dict(u=1.0, v=1.0, r=4.0, t=0.0, m=1.0)
        assert hamiltonian_at(ex.U, degenerate, good_point) is not None


class TestPoissonBrackets:
    def test_angular_bracket_value(self, model, equator_point):
        bracket = poisson_bracket(ex.U, ex.V, model)
        assert bracket.evaluate(equator_point) == pytest.approx(FOUR_PI, rel=1e-13)

    def test_radial_time_bracket_value(self, model, equator_point):
        bracket = poisson_bracket(ex.R, ex.T, model)
        assert bracket.evaluate(equator_point) == pytest.approx(65.29677711243184, rel=1e-12)

    def test_cross_brackets_identically_zero(self, model):
        for pair in ((ex.U, ex.R), (ex.U, ex.T), (ex.V, ex.R), (ex.V, ex.T)):
            assert ex.is_zero(poisson_bracket(*pair, model))

    def test_antisymmetry_numerically(self, model, points):
        f, h = random_functions(2, seed=305)
        total = ex.add(poisson_bracket(f, h, model), poisson_bracket(h, f, model))
        scale_expr = poisson_bracket(f, h, model)
        for point in points[:8]:
            scale = max(1.0, abs(scale_expr.evaluate(point)))
            assert abs(total.evaluate(point)) < 1e-12 * scale

    def test_leibniz_in_second_argument(self, model, operator_points):
        """{f, g h} = g {f, h} + {f, g} h, evaluated pointwise."""
        f, g, h = random_functions(3, seed=306)
        lhs = poisson_bracket(f, ex.mul(g, h), model)
        rhs = ex.add(
            ex.mul(g, poisson_bracket(f, h, model)),
            ex.mul(poisson_bracket(f, g, model), h),
        )
        for point in operator_points:
            scale = max(1.0, abs(lhs.evaluate(point)))
            assert abs(lhs.evaluate(point) - rhs.evaluate(point)) < 1e-10 * scale

    def test_leibniz_in_first_argument(self, model, operator_points):
        """{f g, h} = f {g, h} + {f, h} g, evaluated pointwise."""
        f, g, h = random_functions(3, seed=307)
        lhs = poisson_bracket(ex.mul(f, g), h, model)
        rhs = ex.add(
            ex.mul(f, poisson_bracket(g, h, model)),
            ex.mul(poisson_bracket(f, h, model), g),
        )
        for point in operator_points:
            scale = max(1.0, abs(lhs.evaluate(point)))
            assert abs(lhs.evaluate(point) - rhs.evaluate(point)) < 1e-10 * scale

    def test_jacobi_for_noncoordinate_functions(self, model, operator_points):
        f = ex.add(ex.U, ex.quotient(ex.R, ex.const(5.0)))
        g = ex.V
        h = ex.quotient(ex.T, ex.const(5.0))
        cyclic = ex.add(
            poisson_bracket(f, poisson_bracket(g, h, model), model),
            poisson_bracket(g, poisson_bracket(h, f, model), model),
            poisson_bracket(h, poisson_bracket(f, g, model), model),
        )
        for point in operator_points:
            assert abs(cyclic.evaluate(point)) < 1e-9


class TestBracketTable:
    def test_checks_and_table(self, model, points, operator_points):
        checks, table = bracket_table(model, points, seed=901, jacobi_points=operator_points)
        by_name = {c.name: c for c in checks}
        assert by_name["bracket_uv"].passed
        assert by_name["bracket_rt"].passed
        assert by_name["bracket_cross_zeros"].passed
        assert by_name["bracket_antisymmetry"].passed
        assert by_name["jacobi_identity"].passed
        assert by_name["jacobi_identity"].worst_error < 1e-9
        assert table["u,v"] is poisson_bracket(ex.U, ex.V, model)
        assert table["v,r"] is ex.ZERO
        assert len(table) == 16

    def test_reference_closed_forms_match(self, model, points):
        references = coordinate_bracket_references(model)
        assert len(references) == 6
        for (a, b), expected in references.items():
            got = poisson_bracket(ex.Coordinate(a), ex.Coordinate(b), model)
            for point in points[:8]:
                assert got.evaluate(point) == pytest.approx(expected.evaluate(point), rel=1e-13)

    def test_field_references_satisfy_defining_relation(self, model, points):
        """The displayed closed-form fields themselves solve i_H sympl = -df."""
        for name, field in coordinate_field_references(model).items():
            residual = interior_product(field, model.symplectic_form) + exterior_derivative(
                KForm.scalar(ex.Coordinate(name))
            )
            for point in points[:8]:
                scale = max(1.0, 1.0 / model.symplectic_form.coefficient((0, 1)).evaluate(point))
                assert residual.max_abs_at(point) < 1e-12 * scale


EPS = np.finfo(float).eps
# 2048 is the largest rule a command builds: the fine pass of n_u = 1024
RULE_SIZES = [*range(1, 13), 32, 33, 64, 128, 129, 255, 256, 512, 1024, 2048]


def leggauss_nodes(n):
    """Nodes of numpy's ``leggauss(n)``.  For n = 2048 only the positive
    half, read from a file written once with ``leggauss``: its O(n^3)
    eigensolve takes about a second, and the in-package rule mirrors its
    halves exactly (``test_rule_is_exactly_symmetric``)."""
    if n == 2048:
        text = (Path(__file__).parent / "leggauss_2048_positive_nodes.txt").read_text()
        return np.array([float(x) for x in text.split()])
    return np.polynomial.legendre.leggauss(n)[0]


def reference_weights(n, nodes, digits=40):
    """Weights at the roots of P_n, by Newton's method from the given float
    nodes and the three-term recurrence at the given number of digits."""
    mpmath = pytest.importorskip("mpmath")

    def legendre(x):
        previous, current = mpmath.mpf(1), x
        for k in range(1, n):
            previous, current = current, ((2 * k + 1) * x * current - k * previous) / (k + 1)
        return current, n * (previous - x * current) / (1 - x * x)

    weights = []
    with mpmath.workdps(digits):
        for node in nodes:
            x = mpmath.mpf(float(node))
            for _ in range(4):  # from a float root, each step doubles the digits
                value, slope = legendre(x)
                x -= value / slope
            _, slope = legendre(x)
            weights.append(float(2 / ((1 - x * x) * slope * slope)))
    return np.array(weights)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_nodes_match_numpy(self, n):
        nodes = np.array(gauss_legendre(n)[0])
        reference = leggauss_nodes(n)
        assert np.max(np.abs(nodes[n - len(reference) :] - reference)) <= 4.5e-16

    @pytest.mark.parametrize("n", [6, 32, 128, 256])
    def test_weights_match_a_40_digit_reference(self, n):
        nodes, weights = map(np.array, gauss_legendre(n))
        half = slice(n // 2, None)  # the other half mirrors it
        expected = reference_weights(n, nodes[half])
        assert np.max(np.abs(weights[half] - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_monomials_below_degree_2n_are_exact(self, n):
        """Within 32 ulp of 1 for every degree k < 2n; numpy's Golub-Welsch
        rule errs by 1e-14 at n = 128 and 3e-13 at n = 2048."""
        nodes, weights = map(np.array, gauss_legendre(n))
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.sum(weights * nodes**k)) - exact) <= 32 * EPS, k

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_rule_is_exactly_symmetric(self, n):
        nodes, weights = map(np.array, gauss_legendre(n))
        assert len(nodes) == len(weights) == n
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        if n % 2:
            assert nodes[n // 2] == 0.0

    def test_arrays_are_read_only_and_cached(self):
        nodes, weights = gauss_legendre(8)
        assert gauss_legendre(8)[0] is nodes
        for array in (nodes, weights):
            assert type(array) is tuple and all(type(x) is float for x in array)
            with pytest.raises(TypeError):
                array[0] = 0.0

    def test_empty_rule_is_refused(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


def counted_recurrence(monkeypatch):
    """Make the recurrence count its steps: one per node per degree."""
    steps = []
    evaluate = hamiltonian._legendre_with_derivative

    def counted(n, nodes):
        steps.append(len(nodes) * (n - 1))
        return evaluate(n, nodes)

    monkeypatch.setattr(hamiltonian, "_legendre_with_derivative", counted)
    return steps


class TestRecurrenceWork:
    @pytest.mark.parametrize("n", [128, 256, 2048])
    def test_one_recurrence_pass(self, n, monkeypatch):
        """From Tricomi's guesses every node is certified after one pass of
        the three-term recurrence over the n // 2 positive nodes, (n // 2)
        (n - 1) steps; an odd rule adds n - 1 for its middle node."""
        steps = counted_recurrence(monkeypatch)
        gauss_legendre.__wrapped__(n)
        assert sum(steps) <= (n // 2) * (n - 1) + n

    @pytest.mark.parametrize("n", [6, 33, 256])
    def test_unconverged_nodes_get_another_pass(self, n, monkeypatch):
        """With one Newton step per pass the nodes whose guess is far are
        not certified, and their second pass gives the rule to roundoff."""
        expected = np.array(gauss_legendre(n)[1])
        steps = counted_recurrence(monkeypatch)
        monkeypatch.setattr(hamiltonian, "_NEWTON_STEPS", 1)
        nodes, weights = map(np.array, gauss_legendre.__wrapped__(n))
        assert sum(steps) > (n // 2) * (n - 1) + n % 2 * (n - 1)
        assert np.max(np.abs(nodes - leggauss_nodes(n))) <= 4.5e-16
        assert np.max(np.abs(weights - expected) / expected) <= 1e-12

    def test_uncertified_rule_is_refused(self, monkeypatch):
        """No node is returned without a certified last step."""
        monkeypatch.setattr(hamiltonian, "_NEWTON_STEPS", 0)
        with pytest.raises(ArithmeticError):
            gauss_legendre.__wrapped__(8)


def pointwise_sphere_sum(coefficient, mass, n_u, n_v, r0, t0):
    """The sphere pass point by point: the fsum of each colatitude row,
    then the fsum of the weighted row sums, times the azimuth weight."""
    nodes, weights = gauss_legendre(n_u)
    weighted = []
    for x, w in zip(nodes, weights):
        u = 0.5 * math.pi * (x + 1.0)
        azimuths = [(j + 0.5) * (2.0 * math.pi / n_v) for j in range(n_v)]
        row = [coefficient.evaluate(dict(u=u, v=v, r=r0, t=t0, m=mass)) for v in azimuths]
        weighted.append(0.5 * math.pi * w * math.fsum(row))
    return math.fsum(weighted) * (2.0 * math.pi / n_v)


class TestSurfaceIntegral:
    def test_mass_from_symplectic_form(self, model):
        spec = QuadratureSpec(n_u=32, n_v=64, r0=3.0)
        result = surface_integral(model.symplectic_form, spec, model)
        assert abs(result.value - 1.0) < 1e-10
        assert result.error_estimate < 1e-12

    def test_dual_flux_contributes_nothing(self, model):
        spec = QuadratureSpec(n_u=16, n_v=32, r0=5.0)
        result = surface_integral(model.dual_flux_form, spec, model)
        assert result.value == 0.0

    def test_rescaled_flux_heavier_mass(self):
        model = schwarzschild(2.5)
        spec = QuadratureSpec(n_u=32, n_v=64, r0=10.0)
        result = surface_integral(model.flux_form.scaled(model.lapse), spec, model)
        assert abs(result.value - 2.5) < 1e-10

    def test_radius_independence(self, model):
        """The sphere class is topological: r0 in {2.5m, 5m, 50m} agree."""
        values = []
        for r0 in (2.5, 5.0, 50.0):
            spec = QuadratureSpec(n_u=32, n_v=64, r0=r0)
            values.append(surface_integral(model.symplectic_form, spec, model).value)
        assert max(values) - min(values) < 1e-10

    def test_convergence_with_floor(self, model):
        """Error decays at least geometrically under doubling until the
        roundoff floor (10 ulp of the mass)."""
        floor = 10 * 2.220446049250313e-16 * model.mass
        errors = [
            abs(sphere_sum(model.symplectic_form, model, n, 2 * n, 3.0, 0.0) - model.mass)
            for n in (4, 8, 16, 32)
        ]
        for previous, current in zip(errors, errors[1:]):
            assert current <= max(0.5 * previous, floor)
        assert errors[-1] < 1e-10

    def test_grid_sum_matches_pointwise_loop(self, model):
        """The pass sums each colatitude row along v, weights the row sums
        by the Gauss-Legendre rule, then multiplies by the azimuth weight;
        both sums are correctly rounded.  This coefficient does not depend
        on v, so the pass evaluates it on the colatitude column only."""
        coefficient = model.symplectic_form.coefficient((0, 1))
        expected = pointwise_sphere_sum(coefficient, model.mass, 6, 12, 3.5, 0.2)
        assert sphere_sum(model.symplectic_form, model, 6, 12, 3.5, 0.2) == expected

    def test_azimuthal_grid_sum_matches_pointwise_loop(self, model):
        coefficient = ex.mul(
            model.symplectic_form.coefficient((0, 1)), ex.add(ex.const(1.5), ex.cos(ex.V))
        )
        expected = pointwise_sphere_sum(coefficient, model.mass, 6, 12, 3.5, 0.2)
        form = KForm.from_terms(2, {(0, 1): coefficient})
        assert sphere_sum(form, model, 6, 12, 3.5, 0.2) == expected

    def test_azimuth_dependent_form_integrates(self, model):
        """sin u (2 + cos v + sin 3v) du^dv integrates to 8 pi over the sphere."""
        azimuthal = ex.add(ex.const(2.0), ex.cos(ex.V), ex.sin(ex.mul(ex.const(3.0), ex.V)))
        form = KForm.from_terms(2, {(0, 1): ex.mul(ex.sin(ex.U), azimuthal)})
        total = sphere_sum(form, model, 32, 64, 3.0, 0.0)
        assert abs(total - 8.0 * math.pi) < 1e-12

    def test_azimuth_independent_pass_allocates_no_grid(self, model):
        """A v-independent coefficient is summed without an n_u x n_v
        temporary: a 2048 x 2048 pass stays far below the 32 MB grid."""
        gauss_legendre(2048)
        tracemalloc.start()
        try:
            sphere_sum(model.symplectic_form, model, 2048, 2048, 3.0, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_spec_validation(self, model):
        with pytest.raises(ValueError):
            QuadratureSpec(n_u=1, n_v=64, r0=3.0)
        with pytest.raises(ValueError):
            QuadratureSpec(n_u=8, n_v=2, r0=3.0)
        with pytest.raises(ValueError):
            QuadratureSpec(n_u=8, n_v=16, r0=-1.0)
        with pytest.raises(ValueError):
            surface_integral(model.symplectic_form, QuadratureSpec(n_u=8, n_v=16, r0=1.5), model)
        with pytest.raises(ValueError):
            surface_integral(model.volume_form, QuadratureSpec(n_u=8, n_v=16, r0=3.0), model)

    @pytest.mark.parametrize("counts", [{"n_u": 32.0}, {"n_u": 8, "n_v": 8.5}])
    def test_non_integer_node_counts_are_refused(self, counts):
        with pytest.raises(TypeError):
            QuadratureSpec(**counts)

    def test_determinism(self, model):
        spec = QuadratureSpec(n_u=16, n_v=32, r0=4.0)
        first = surface_integral(model.symplectic_form, spec, model)
        second = surface_integral(model.symplectic_form, spec, model)
        assert first == second
