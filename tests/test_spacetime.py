"""Model constructors and the structural verification reports."""

import math
from fractions import Fraction

import pytest

from warpsymp import expressions as ex
from warpsymp.exterior import KForm, VectorField, exterior_derivative, wedge
from warpsymp.hamiltonian import coordinate_bracket_references, coordinate_field_references
from warpsymp.prequantum import ConnectionPotential
from warpsymp.sampling import SampleWindow, sample_points
from warpsymp.spacetime import (
    darboux_chart,
    foliation_report,
    generalized_static,
    schwarzschild,
    schwarzschild_factor,
    verify_gradient_relation,
    verify_observer,
    verify_omega_identities,
    verify_symplectic,
)


class TestConstructor:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            schwarzschild(0.0)
        with pytest.raises(ValueError):
            schwarzschild(-2.0)

    def test_metric_entries(self, model):
        point = dict(u=0.9, v=1.0, r=4.0, t=0.0, m=1.0)
        assert model.metric.diagonal[3].evaluate(point) == pytest.approx(-0.5, abs=1e-15)
        assert model.metric.diagonal[2].evaluate(point) == pytest.approx(2.0, abs=1e-14)
        assert model.metric.diagonal[0].evaluate(point) == pytest.approx(16.0)
        assert model.metric.diagonal[1].evaluate(point) == pytest.approx(
            16.0 * math.sin(0.9) ** 2
        )

    def test_asymptotic_flatness_probe(self, model):
        point = dict(u=1.0, v=1.0, r=1e6, t=0.0, m=1.0)
        assert model.metric.diagonal[2].evaluate(point) == pytest.approx(
            1.0 + 2e-6, rel=1e-11
        )

    def test_lapse_squared_matches_factor(self, model, points):
        """exp(2 warp) = 1 - 2m/r identically on samples."""
        residual = ex.exp(ex.const(2.0) * model.warp) - schwarzschild_factor()
        for point in points:
            assert abs(residual.evaluate(point)) < 1e-14

    def test_symplectic_built_from_parts(self, model, points):
        rebuilt = model.flux_form.scaled(model.lapse) + model.dual_flux_form
        residual = rebuilt - model.symplectic_form
        assert all(residual.max_abs_at(p) == 0.0 for p in points[:5])


class TestGradientRelation:
    def test_passes(self, model, points):
        result = verify_gradient_relation(model, points, seed=901)
        assert result.passed and result.worst_error < 1e-12

    def test_passes_for_heavier_mass(self):
        model = schwarzschild(5.0)
        result = verify_gradient_relation(model, sample_points(5.0, 40, seed=31))
        assert result.passed

    def test_doubled_field_fails_with_gradient_magnitude(self, model, points):
        """Doubling R leaves a residual equal to |d(warp)| at the worst point."""
        doubled = model._replace(
            gravitational_field=VectorField(
                tuple(ex.mul(ex.const(2.0), c) for c in model.gravitational_field.components)
            )
        )
        result = verify_gradient_relation(doubled, points)
        assert not result.passed
        gradient = exterior_derivative(KForm.scalar(model.warp))
        expected = max(gradient.max_abs_at(p) for p in points)
        assert result.worst_error == pytest.approx(expected, rel=1e-12)


class TestObserver:
    def test_unit_norm_and_orthogonality(self, model, points):
        unit, orthogonal = verify_observer(model, points, seed=901)
        assert unit.passed and unit.worst_error < 1e-13
        assert orthogonal.passed and orthogonal.worst_error < 1e-13


class TestFluxIdentities:
    def test_all_three_pass(self, model, points):
        results = verify_omega_identities(model, points, seed=901)
        assert [r.name for r in results] == [
            "flux_wedge_square",
            "flux_closure_relation",
            "flux_volume_identity",
        ]
        assert all(r.passed for r in results)
        assert results[0].worst_error == 0.0  # identically empty after canonicalisation

    def test_perturbed_flux_fails_closure(self, model, points):
        # a constant du^dr perturbation is closed and killed by d(warp)^.,
        # so it would slip through; a v-dependent coefficient is detectable
        perturbed_flux = model.flux_form + KForm.from_terms(2, {(0, 2): ex.sin(ex.V)})
        perturbed = model._replace(flux_form=perturbed_flux)
        results = verify_omega_identities(perturbed, points)
        square, closure = results[0], results[1]
        assert square.passed  # the square identity may well survive
        assert not closure.passed

    def test_near_horizon_error_growth_is_conditioning(self):
        """At r = 2m(1+1e-4) the identity still holds up to the conditioning
        of the coefficients: residuals stay below cond * 100 ulp while the
        plain 1e-11 bar is no longer meaningful there."""
        model = schwarzschild(0.5)
        window = SampleWindow(r_margin=1e-4, r_max_factor=2.5)
        near = sample_points(0.5, 12, seed=13, window=window)
        far = sample_points(0.5, 12, seed=13)
        results_near = verify_omega_identities(model, near)
        results_far = verify_omega_identities(model, far)
        closure_near, closure_far = results_near[1], results_far[1]
        assert closure_far.worst_error < 1e-12
        flux_derivative = exterior_derivative(model.flux_form)
        conditioning = max(flux_derivative.max_abs_at(p) for p in near)
        assert closure_near.worst_error < conditioning * 100 * 2.3e-16
        assert closure_near.worst_error >= closure_far.worst_error  # growth is logged


class TestSymplecticTheorem:
    def test_all_pass(self, model, points):
        results = verify_symplectic(model, points, seed=901)
        by_name = {r.name: r for r in results}
        assert by_name["closed_rescaled_flux"].passed
        assert by_name["dual_flux_potential"].passed
        assert by_name["dual_flux_potential"].worst_error < 1e-13
        assert by_name["dual_flux_square"].passed
        assert by_name["dual_flux_square"].worst_error == 0.0
        assert by_name["symplectic_square_identity"].passed
        assert by_name["symplectic_nondegeneracy"].passed
        assert by_name["symplectic_nondegeneracy"].details["single_sign"]

    def test_scaling_covariance(self):
        """m -> lambda m with the same seed rescales the sample exactly, and
        the dimensionless residuals stay at the same roundoff level."""
        def worst_errors(mass):
            model = schwarzschild(mass)
            points = sample_points(mass, 30, seed=71)
            gradient = verify_gradient_relation(model, points)
            flux = verify_omega_identities(model, points)
            symplectic = verify_symplectic(model, points)
            return {
                "gradient": gradient.worst_error * mass,  # residual ~ 1/length
                "closure": flux[1].worst_error,           # dimensionless
                "square": symplectic[3].worst_error,      # dimensionless
                "all_pass": gradient.passed
                and all(r.passed for r in flux)
                and all(r.passed for r in symplectic),
            }

        base = worst_errors(1.0)
        assert base["all_pass"]
        for scale in (0.5, 2.0, 10.0):
            scaled = worst_errors(scale)
            assert scaled["all_pass"]
            for key in ("gradient", "closure", "square"):
                assert scaled[key] <= max(base[key] * 100.0, 1e-13)

    def test_deterministic_reports(self, model):
        points_a = sample_points(1.0, 25, seed=5)
        points_b = sample_points(1.0, 25, seed=5)
        first = [r.to_dict() for r in verify_symplectic(model, points_a, seed=5)]
        second = [r.to_dict() for r in verify_symplectic(model, points_b, seed=5)]
        assert first == second


class TestFoliation:
    def test_leaf_pfaffian_closed_form(self, model, points):
        pfaffian_check, volume_check, closedness = foliation_report(model, points, seed=901)
        assert pfaffian_check.passed
        assert volume_check.passed
        assert closedness.passed
        point = dict(u=math.pi / 2, v=1.0, r=3.0, t=0.0, m=1.0)
        pfaffian = model.flux_form.coefficient((0, 1)).evaluate(point)
        assert pfaffian == pytest.approx(0.13783222385544802, rel=1e-12)

    def test_pole_degeneracy_flagged_as_coordinate_artifact(self, model, points):
        *_, closedness = foliation_report(model, points)
        assert closedness.details["pole_degeneracy_is_coordinate_artifact"]
        # the Pfaffian itself does vanish like sin(u) toward the pole
        near_pole = dict(u=1e-3, v=1.0, r=3.0, t=0.0, m=1.0)
        equator = dict(u=math.pi / 2, v=1.0, r=3.0, t=0.0, m=1.0)
        ratio = model.flux_form.coefficient((0, 1)).evaluate(near_pole) / math.sin(1e-3)
        assert ratio == pytest.approx(
            model.flux_form.coefficient((0, 1)).evaluate(equator), rel=1e-9
        )

    def test_volume3_matches_flux_derivative(self, model, points):
        """-d(warp)^flux equals d(flux); its magnitude is what the report samples."""
        warp_differential = exterior_derivative(KForm.scalar(model.warp))
        volume3 = wedge(warp_differential.scaled(ex.NEG_ONE), model.flux_form)
        derivative = exterior_derivative(model.flux_form)
        for point in points[:6]:
            assert volume3.coefficient((0, 1, 2)).evaluate(point) == pytest.approx(
                derivative.coefficient((0, 1, 2)).evaluate(point), rel=1e-12
            )

    def test_minima_name_their_sample_point(self, model, points):
        """Each lower-bound check names the first sample point, in point
        order, of its minimum magnitude: a loop over the points' one-point
        values finds the same point and value."""
        warp_differential = exterior_derivative(KForm.scalar(model.warp))
        volume3 = wedge(warp_differential.scaled(ex.NEG_ONE), model.flux_form)
        square = wedge(model.symplectic_form, model.symplectic_form)
        pfaffian_check, volume_check, closedness = foliation_report(model, points)
        *_, nondegeneracy = verify_symplectic(model, points)
        cases = [
            (pfaffian_check, model.flux_form.coefficient((0, 1)), model.mass),
            (volume_check, volume3.coefficient((0, 1, 2)), 1.0),
            (nondegeneracy, square.coefficient((0, 1, 2, 3)), 1.0),
        ]
        for check, coefficient, scale in cases:
            least, where = math.inf, None
            for point in points:
                magnitude = abs(coefficient.evaluate(point)) / scale
                if magnitude < least:
                    least, where = magnitude, point
            assert (check.worst_error, check.worst_point) == (least, where)
        assert closedness.worst_point is None

    def test_report_serialises(self, model, points):
        payloads = [result.to_dict() for result in foliation_report(model, points, seed=901)]
        assert [p["check_name"] for p in payloads] == [
            "foliation_leaf_pfaffian",
            "foliation_volume_form",
            "foliation_leaf_closedness",
        ]
        assert payloads[0]["threshold"] > 0


class TestGeneralizedConstructor:
    def test_consistency_with_closed_constructor(self, model, points):
        """The general constructor fed the closed-form warp and leaf area
        reproduces the same derived structure."""
        leaf_area = KForm.from_terms(2, {(0, 1): ex.power(ex.R, 2) * ex.sin(ex.U)})
        general = generalized_static(model.warp, leaf_area, mass=1.0)
        assert general.closure_check.passed
        for point in points[:8]:
            for name in ("flux_form", "dual_flux_form", "symplectic_form"):
                built = getattr(general, name)
                reference = getattr(model, name)
                residual = built - reference
                assert residual.max_abs_at(point) < 1e-12
            got = general.gravitational_field.evaluate_at(point)
            expected = model.gravitational_field.evaluate_at(point)
            assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-14

    def test_constant_warp_degenerates(self):
        """Zero warp kills the flux form: the closure hypothesis holds
        trivially but the symplectic square vanishes."""
        leaf_area = KForm.from_terms(2, {(0, 1): ex.power(ex.R, 2) * ex.sin(ex.U)})
        flat_model = generalized_static(ex.ZERO, leaf_area, mass=1.0)
        assert flat_model.flux_form.terms == ()
        assert flat_model.closure_check.passed
        assert flat_model.closure_check.details["symplectic_square_min"] == 0.0

    def test_charged_style_warp_fails_hypothesis(self):
        """warp = ln(1 - 2m/r + q^2/r^2)^(1/2) with the spherical leaf area
        does not satisfy d(flux) = -d(warp)^flux; the model reports it."""
        q = 0.3
        factor = (
            ex.ONE
            - ex.const(2.0) * ex.M / ex.R
            + ex.const(q**2) * ex.power(ex.R, -2)
        )
        warp = ex.log(ex.power(factor, Fraction(1, 2)))
        leaf_area = KForm.from_terms(2, {(0, 1): ex.power(ex.R, 2) * ex.sin(ex.U)})
        charged = generalized_static(warp, leaf_area, mass=1.0)
        assert not charged.closure_check.passed
        assert charged.closure_check.worst_error > 1e-6

    def test_rejects_warp_with_angular_dependence(self):
        leaf_area = KForm.from_terms(2, {(0, 1): ex.sin(ex.U)})
        with pytest.raises(ValueError):
            generalized_static(ex.U, leaf_area, mass=1.0)

    def test_rejects_leaf_form_outside_angular_plane(self):
        bad = KForm.from_terms(2, {(0, 2): ex.ONE})
        with pytest.raises(ValueError):
            generalized_static(ex.ZERO - ex.quotient(ex.M, ex.R), bad, mass=1.0)


class TestDarbouxChart:
    @pytest.mark.parametrize("mass", [0.5, 1.0, 10.0])
    def test_chart_reproduces_the_symplectic_form(self, mass):
        """sum dP ^ dQ - sympl vanishes to roundoff at seeded points."""
        model = schwarzschild(mass)
        chart_form = KForm.zero(2)
        for p, q in darboux_chart(model):
            chart_form += wedge(
                exterior_derivative(KForm.scalar(p)), exterior_derivative(KForm.scalar(q))
            )
        residual = chart_form - model.symplectic_form
        points = sample_points(mass, 50, seed=903)
        assert max(residual.max_abs_at(point) for point in points) < 1e-15

    def test_polar_momentum_vanishes_at_the_north_pole(self):
        """P1 = (m/4pi)(1 - cos u) is 0 at u = 0 and m/2pi at u = pi."""
        (polar, _), _ = darboux_chart(schwarzschild(2.0))
        inputs = {"u": [0.0, math.pi], "v": 1.0, "r": 3.0, "t": 0.0, "m": 2.0}
        assert ex.evaluate_many([polar], inputs) == [[0.0, 2.0 * 2.0 / (4.0 * math.pi)]]

    def test_model_without_a_chart_is_refused(self, model):
        """A generalised model derives no chart, so the closed forms read
        off one are refused, not answered with Schwarzschild's."""
        leaf_area = KForm.from_terms(2, {(0, 1): ex.power(ex.R, 2) * ex.sin(ex.U)})
        general = generalized_static(model.warp, leaf_area, mass=1.0)
        assert general.darboux is None
        for closed_forms in (
            coordinate_field_references,
            coordinate_bracket_references,
            ConnectionPotential.monopole,
        ):
            with pytest.raises(ValueError, match="no Darboux chart"):
                closed_forms(general)
