"""Exterior algebra: antisymmetry, d, interior product, musicals, Hodge star.

Structural identities (d^2 = 0, Leibniz, the antiderivation property, the
Hodge isometry) are checked numerically at random points on seeded random
forms; the Hodge checks also carry an independent numpy contraction oracle.
"""

import itertools
import math
import random

import numpy as np
import pytest

from warpsymp import expressions as ex
from warpsymp.exterior import (
    DIM,
    DegreeError,
    KForm,
    MetricTensor,
    SingularMetricError,
    VectorField,
    basis_vector,
    exterior_derivative,
    flat,
    hodge_star,
    interior_product,
    lie_bracket,
    metric_inner,
    pairing,
    sharp,
    wedge,
)
from warpsymp.spacetime import generalized_static


def du():
    return KForm.from_terms(1, {(0,): ex.ONE})


def random_scalar(rng):
    """A small random expression; total on the chart by construction."""
    atoms = [
        ex.const(rng.uniform(-2, 2)),
        ex.U,
        ex.quotient(ex.R, ex.const(5.0)),
        ex.sin(ex.U),
        ex.cos(ex.V),
        ex.quotient(ex.T, ex.const(4.0)),
        ex.quotient(ex.M, ex.R),
    ]
    a, b, c = (atoms[rng.randrange(len(atoms))] for _ in range(3))
    shape = rng.randrange(4)
    if shape == 0:
        return ex.add(a, ex.mul(b, c))
    if shape == 1:
        return ex.mul(a, ex.add(b, c))
    if shape == 2:
        return ex.mul(a, ex.sin(ex.add(b, c)))
    return ex.add(ex.mul(a, b), ex.power(c, 2))


def random_form(rng, degree):
    coefficients = {}
    for index in itertools.combinations(range(DIM), degree):
        if rng.random() < 0.7:
            coefficients[index] = random_scalar(rng)
    return KForm.from_terms(degree, coefficients)


def form_residual(form, points):
    return max(form.max_abs_at(p) for p in points)


@pytest.fixture(scope="module")
def metrics(model):
    """The Schwarzschild metric, and the metric of a generalized static model
    with the Schwarzschild lapse and the non-round leaf density
    r^2 sin(u) (1 + 0.3 cos(u))."""
    density = ex.power(ex.R, 2) * ex.sin(ex.U) * (ex.ONE + ex.const(0.3) * ex.cos(ex.U))
    leaf_area = KForm.from_terms(2, {(0, 1): density})
    return model.metric, generalized_static(model.warp, leaf_area, mass=1.0).metric


def metric_at(metric, point):
    """The metric's 4x4 matrix at a point."""
    return np.diag([value for (value,) in ex.evaluate_many(metric.diagonal, point)])


class TestCanonicalisation:
    def test_permuted_index_flips_sign(self):
        form = KForm.from_terms(2, {(2, 0): ex.sin(ex.U)})
        point = dict(u=0.8, v=1.0, r=4.0, t=0.0, m=1.0)
        assert form.coefficient((0, 2)).evaluate(point) == pytest.approx(-math.sin(0.8))
        assert form.coefficient((2, 0)).evaluate(point) == pytest.approx(math.sin(0.8))

    def test_repeated_index_drops(self):
        assert KForm.from_terms(2, {(1, 1): ex.R}).terms == ()

    def test_zero_coefficients_drop(self):
        assert KForm.from_terms(1, {(0,): ex.ZERO}).terms == ()

    def test_degree_bounds(self):
        with pytest.raises(DegreeError):
            KForm.from_terms(5, {})

    def test_scalar_form(self):
        form = KForm.scalar(ex.R)
        assert form.degree == 0
        assert form.as_scalar() is ex.R


class TestWedge:
    def test_du_wedge_du_vanishes(self):
        assert wedge(du(), du()).terms == ()

    def test_degree_overflow_rejected(self, model):
        with pytest.raises(DegreeError):
            wedge(model.volume_form, du())

    def test_graded_commutativity(self, points):
        rng = random.Random(4)
        for deg_a, deg_b in ((1, 1), (1, 2), (2, 2), (1, 3), (0, 2)):
            a, b = random_form(rng, deg_a), random_form(rng, deg_b)
            sign = (-1) ** (deg_a * deg_b)
            residual = wedge(a, b) - wedge(b, a).scaled(ex.const(sign))
            assert form_residual(residual, points[:6]) < 1e-12

    def test_associativity(self, points):
        rng = random.Random(5)
        a, b, c = random_form(rng, 1), random_form(rng, 1), random_form(rng, 2)
        residual = wedge(wedge(a, b), c) - wedge(a, wedge(b, c))
        assert form_residual(residual, points[:6]) < 1e-12

    def test_leibniz_rule(self, points):
        """d(a^b) = da^b + (-1)^deg(a) a^db, pointwise."""
        rng = random.Random(6)
        for deg_a, deg_b in ((1, 1), (1, 2), (2, 1), (0, 1)):
            a, b = random_form(rng, deg_a), random_form(rng, deg_b)
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) + wedge(
                a, exterior_derivative(b)
            ).scaled(ex.const((-1.0) ** deg_a))
            assert form_residual(lhs - rhs, points[:6]) < 1e-10


class TestExteriorDerivative:
    def test_warp_differential_single_radial_coefficient(self, model, points):
        """d(warp) carries only a dr part, (m/r^2)(1-2m/r)^(-1)."""
        differential = exterior_derivative(KForm.scalar(model.warp))
        assert [index for index, _ in differential.terms] == [(2,)]
        for point in points[:8]:
            expected = (point["m"] / point["r"]**2) / (1.0 - 2.0 * point["m"] / point["r"])
            assert differential.coefficient((2,)).evaluate(point) == pytest.approx(
                expected, rel=1e-13
            )

    def test_d_squared_vanishes_on_warp(self, model, points):
        twice = exterior_derivative(exterior_derivative(KForm.scalar(model.warp)))
        assert form_residual(twice, points) < 1e-12

    def test_d_squared_on_random_forms(self):
        """1000 seeded random small forms: d(d(form)) evaluates below 1e-12."""
        rng = random.Random(20240817)
        eval_points = [
            dict(u=rng.uniform(0.4, 2.6), v=rng.uniform(0.4, 5.8),
                 r=rng.uniform(2.5, 20.0), t=rng.uniform(-3.0, 3.0), m=1.0)
            for _ in range(3)
        ]
        worst = 0.0
        for _ in range(1000):
            degree = rng.choice((0, 1, 2))
            form = random_form(rng, degree)
            twice = exterior_derivative(exterior_derivative(form))
            worst = max(worst, form_residual(twice, eval_points))
        assert worst < 1e-12

    def test_top_degree_rejected(self, model):
        with pytest.raises(DegreeError):
            exterior_derivative(model.volume_form)


class TestInteriorProduct:
    def test_dual_pairing(self, points):
        contraction = interior_product(basis_vector(0), du())
        assert contraction.degree == 0
        assert contraction.as_scalar().evaluate(points[0]) == 1.0

    def test_no_overlap_gives_zero(self):
        form = KForm.from_terms(2, {(0, 1): ex.R})
        time_field = VectorField((ex.ZERO, ex.ZERO, ex.ZERO, ex.sin(ex.U)))
        assert interior_product(time_field, form).terms == ()

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeError):
            interior_product(basis_vector(0), KForm.scalar(ex.ONE))

    def test_antiderivation(self, points):
        """i_X(a^b) = (i_X a)^b + (-1)^deg(a) a^(i_X b), pointwise."""
        rng = random.Random(7)
        x = VectorField(tuple(random_scalar(rng) for _ in range(4)))
        for deg_a, deg_b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            a, b = random_form(rng, deg_a), random_form(rng, deg_b)
            lhs = interior_product(x, wedge(a, b))
            rhs = wedge(interior_product(x, a), b) + wedge(
                a, interior_product(x, b)
            ).scaled(ex.const((-1.0) ** deg_a))
            assert form_residual(lhs - rhs, points[:6]) < 1e-10

    def test_flux_construction_matches_display(self, model, points):
        """-(1/4pi) i_R i_X vol reproduces (m/4pi)(1-2m/r)^(-1/2) sin(u) du^dv."""
        built = interior_product(
            model.gravitational_field,
            interior_product(model.observer_field, model.volume_form),
        ).scaled(ex.const(-1.0 / (4.0 * math.pi)))
        assert [index for index, _ in built.terms] == [(0, 1)]
        for point in points[:8]:
            expected = (
                point["m"]
                / (4.0 * math.pi)
                * (1.0 - 2.0 * point["m"] / point["r"]) ** -0.5
                * math.sin(point["u"])
            )
            assert built.coefficient((0, 1)).evaluate(point) == pytest.approx(expected, rel=1e-13)


class TestMusicalIsomorphisms:
    def test_flat_of_gravitational_field(self, model, points):
        """flat(R) = -d(warp), the gradient relation."""
        lowered = flat(model.gravitational_field, model.metric)
        expected = exterior_derivative(KForm.scalar(model.warp)).scaled(ex.NEG_ONE)
        assert form_residual(lowered - expected, points) < 1e-12

    def test_flat_of_observer_field(self, model, points):
        """flat(X) = lapse * dt for the unit observer field."""
        lowered = flat(model.observer_field, model.metric)
        expected = KForm.from_terms(1, {(3,): model.lapse})
        assert form_residual(lowered - expected, points) < 1e-12

    def test_sharp_inverts_flat(self, metrics, points):
        rng = random.Random(8)
        field = VectorField(tuple(random_scalar(rng) for _ in range(4)))
        for metric in metrics:
            roundtrip = sharp(flat(field, metric), metric)
            for point in points[:8]:
                got = np.array(roundtrip.evaluate_at(point))
                expected = np.array(field.evaluate_at(point))
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(got - expected)) < 1e-10 * scale

    def test_sharp_requires_one_form(self, model):
        with pytest.raises(DegreeError):
            sharp(model.flux_form, model.metric)


class TestMetric:
    def test_signature(self, model, points):
        """Pointwise signature (+,+,+,-): three positive, one negative eigenvalue."""
        for point in points[:8]:
            eigenvalues = np.linalg.eigvalsh(metric_at(model.metric, point))
            assert np.sum(eigenvalues > 0) == 3
            assert np.sum(eigenvalues < 0) == 1

    def test_inner_products(self, model, points, equator_point):
        x, r_field = model.observer_field, model.gravitational_field
        unit = metric_inner(x, x, model.metric)
        cross = metric_inner(r_field, x, model.metric)
        radial = metric_inner(r_field, r_field, model.metric)
        for point in points[:8]:
            assert unit.evaluate(point) == pytest.approx(-1.0, abs=1e-14)
            assert cross.evaluate(point) == pytest.approx(0.0, abs=1e-14)
        assert radial.evaluate(equator_point) == pytest.approx(0.037037037037037035, rel=1e-12)

    def test_symmetry_of_inner(self, model, points):
        rng = random.Random(9)
        x = VectorField(tuple(random_scalar(rng) for _ in range(4)))
        y = VectorField(tuple(random_scalar(rng) for _ in range(4)))
        inner = metric_inner(x, y, model.metric)
        difference = inner - metric_inner(y, x, model.metric)
        for point in points[:6]:
            scale = max(1.0, abs(inner.evaluate(point)))
            assert abs(difference.evaluate(point)) < 1e-13 * scale

    def test_singular_metric_rejected(self):
        degenerate = MetricTensor((ex.R, ex.ZERO, ex.ZERO, ex.ZERO))
        with pytest.raises(SingularMetricError):
            sharp(du(), degenerate)


class TestHodgeStar:
    def test_volume_form(self, model, points):
        """star(1) = r^2 sin(u) du^dv^dr^dt."""
        for point in points[:8]:
            expected = point["r"]**2 * math.sin(point["u"])
            got = model.volume_form.coefficient((0, 1, 2, 3)).evaluate(point)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_dual_flux_closed_form(self, model, points):
        """star(flux) = (m/4pi r^2)(1-2m/r)^(-1/2) dr^dt."""
        assert [index for index, _ in model.dual_flux_form.terms] == [(2, 3)]
        for point in points[:8]:
            expected = (
                point["m"]
                / (4.0 * math.pi * point["r"]**2)
                * (1.0 - 2.0 * point["m"] / point["r"]) ** -0.5
            )
            got = model.dual_flux_form.coefficient((2, 3)).evaluate(point)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_double_star_sign(self, metrics, points):
        """star(star(a)) = -(-1)^(k(4-k)) a on this signature, k = 1 and 2."""
        rng = random.Random(10)
        for degree in (1, 2):
            form = random_form(rng, degree)
            sign = -((-1.0) ** (degree * (DIM - degree)))
            for metric in metrics:
                twice = hodge_star(hodge_star(form, metric), metric)
                assert form_residual(twice - form.scaled(ex.const(sign)), points[:6]) < 1e-10

    def test_isometry_against_numpy_oracle(self, metrics, points):
        """a ^ star(b) = <a,b> vol, with <a,b> contracted independently in numpy."""
        rng = random.Random(11)
        a, b = random_form(rng, 2), random_form(rng, 2)
        for metric in metrics:
            lhs = wedge(a, hodge_star(b, metric))
            for point in points[:6]:
                g = metric_at(metric, point)
                inverse = np.linalg.inv(g)
                a_full = np.zeros((4, 4))
                b_full = np.zeros((4, 4))
                for index, coefficient in a.terms:
                    value = coefficient.evaluate(point)
                    a_full[index] = value
                    a_full[index[::-1]] = -value
                for index, coefficient in b.terms:
                    value = coefficient.evaluate(point)
                    b_full[index] = value
                    b_full[index[::-1]] = -value
                b_raised = inverse @ b_full @ inverse.T
                inner = 0.5 * np.tensordot(a_full, b_raised, axes=2)
                volume = math.sqrt(-np.linalg.det(g))
                expected = inner * volume
                got = lhs.coefficient((0, 1, 2, 3)).evaluate(point)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_wedge_of_rescaled_flux_and_dual(self, model):
        """(lapse*flux)^(star flux) at (m=1, u=pi/2, r=3) has the hand value
        m^2 e^(-warp) sin(u) / ((4 pi)^2 r^2)."""
        point = dict(u=math.pi / 2, v=1.0, r=3.0, t=0.0, m=1.0)
        product = wedge(model.flux_form.scaled(model.lapse), model.dual_flux_form)
        got = product.coefficient((0, 1, 2, 3)).evaluate(point)
        assert got == pytest.approx(0.0012187044302190671, rel=1e-12)


class TestDirectionalDerivative:
    @pytest.mark.parametrize(
        "components",
        [
            (ex.ZERO, ex.ONE, ex.ZERO, ex.ZERO),
            (ex.ZERO, ex.cos(ex.U), ex.ZERO, ex.R),
            (ex.sin(ex.V), ex.ZERO, ex.ZERO, ex.ZERO),
        ],
    )
    def test_zero_components_are_not_differentiated_along(self, components, request):
        """A field with zero components gives the node the full four-term
        sum gives, and leaves the scalar no derivative along the zero
        components' coordinates."""
        scalar = ex.mul(
            ex.Parameter(request.node.name), ex.sin(ex.U), ex.cos(ex.V), ex.R, ex.exp(ex.T)
        )
        got = VectorField(components).apply(scalar)
        names = ex.COORDINATE_NAMES
        assert set(scalar._derivatives) == {
            name for name, c in zip(names, components) if not ex.is_zero(c)
        }
        full = ex.add(*[ex.mul(c, scalar.diff(name)) for c, name in zip(components, names)])
        assert got is full


class TestLieBracket:
    def test_coordinate_fields_commute(self, points):
        bracket = lie_bracket(basis_vector(0), basis_vector(2))
        assert all(ex.is_zero(component) for component in bracket.components)

    def test_bracket_against_commutator_of_derivations(self, points):
        rng = random.Random(12)
        x = VectorField(tuple(random_scalar(rng) for _ in range(4)))
        y = VectorField(tuple(random_scalar(rng) for _ in range(4)))
        scalar = random_scalar(rng)
        direct = lie_bracket(x, y).apply(scalar)
        nested = ex.add(
            x.apply(y.apply(scalar)), ex.mul(ex.NEG_ONE, y.apply(x.apply(scalar)))
        )
        for point in points[:6]:
            assert direct.evaluate(point) == pytest.approx(
                nested.evaluate(point), rel=1e-9, abs=1e-9
            )

    def test_pairing(self, model, points):
        paired = pairing(flat(model.observer_field, model.metric), model.observer_field)
        for point in points[:6]:
            assert paired.evaluate(point) == pytest.approx(-1.0, abs=1e-13)
