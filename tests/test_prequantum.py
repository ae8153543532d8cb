"""Connection, operator algebra, radial residuals, integrality."""

import itertools
import math

import numpy as np
import pytest

from warpsymp import expressions as ex
from warpsymp import prequantum
from warpsymp.expressions import EvaluationError
from warpsymp.exterior import basis_vector, wedge
from warpsymp.hamiltonian import QuadratureSpec, gauss_legendre, hamiltonian_field
from warpsymp.prequantum import (
    Box,
    ConnectionPotential,
    CurvatureScale,
    Section,
    SectionFamily,
    ZERO_SECTION,
    apply_operator,
    box_l2_norm,
    commutator_suite,
    covariant_derivative,
    curvature_section_check,
    geometric_operator_report,
    integrality_report,
    phase_section,
    prequantum_operator,
    radial_eigen_residual,
    random_sections,
    separable_radial_residual,
    verify_curvature_potential,
)
from warpsymp.reports import peak
from warpsymp.spacetime import schwarzschild

FOUR_PI = 4.0 * math.pi


def apply_variant(f, psi, model, potential, hermitian):
    """f-hat psi under either convention: the operator record's variant."""
    return prequantum_operator(f, model, potential)._replace(hermitian=hermitian).apply(psi)


@pytest.fixture(scope="module")
def potential(model):
    return ConnectionPotential.monopole(model)


@pytest.fixture(scope="module")
def sections(model):
    return random_sections(model.mass, 6, seed=414)


class TestConnectionPotential:
    def test_monopole_closed_form(self, potential, equator_point):
        theta = potential.theta
        assert [index for index, _ in theta.terms] == [(1,), (3,)]
        assert theta.coefficient((1,)).evaluate(equator_point) == pytest.approx(
            (1.0 - math.cos(math.pi / 2)) / FOUR_PI
        )
        assert theta.coefficient((3,)).evaluate(equator_point) == pytest.approx(
            0.04594407461848267, rel=1e-12
        )

    def test_curvature_residual_plain(self, model, potential, points):
        check = verify_curvature_potential(model, potential, points, seed=901)
        assert check.passed and check.worst_error < 1e-13

    def test_curvature_residual_weil(self, model, points):
        weil = ConnectionPotential.monopole(model, CurvatureScale.WEIL)
        check = verify_curvature_potential(model, weil, points, seed=901)
        assert check.passed and check.details["scale_mode"] == "weil"

    def test_gauge_shift_preserves_curvature(self, model, potential, points):
        shifted = potential.gauge_shifted(ex.sin(ex.U) * ex.quotient(ex.T, ex.R))
        check = verify_curvature_potential(model, shifted, points)
        assert check.passed

    def test_requires_one_form(self, model):
        from warpsymp.exterior import KForm

        with pytest.raises(ValueError):
            ConnectionPotential(KForm.scalar(ex.ONE))


class TestCovariantDerivative:
    def test_time_direction_on_unit_section(self, model, potential, equator_point):
        """nabla_(d/dt) 1 = -i theta(d/dt) = -i lapse/(4 pi m)."""
        derivative = covariant_derivative(basis_vector(3), Section(ex.ONE, ex.ZERO), potential)
        got = derivative.evaluate_at(equator_point)
        expected = -1j * math.sqrt(1.0 - 2.0 / 3.0) / FOUR_PI
        assert got == pytest.approx(expected, rel=1e-13)

    def test_flat_limit(self, model, points):
        from warpsymp.exterior import KForm

        flat = ConnectionPotential(KForm.zero(1))
        psi = Section(ex.sin(ex.U), ex.mul(ex.T, ex.V))
        derivative = covariant_derivative(basis_vector(0), psi, flat)
        for point in points[:5]:
            assert derivative.evaluate_at(point) == pytest.approx(
                complex(math.cos(point["u"]), 0.0), abs=1e-13
            )

    def test_complex_linearity(self, model, potential, points, sections):
        x = basis_vector(2)
        psi = sections.build([ex.const(x) for x in sections.draws[0]])
        rotated = psi.scaled_real(ex.const(0.5)) + psi.times_i_scaled(ex.const(-1.25))
        gradient = covariant_derivative(x, psi, potential)
        lhs = covariant_derivative(x, rotated, potential)
        rhs = gradient.scaled_real(ex.const(0.5)) + gradient.times_i_scaled(ex.const(-1.25))
        for point in points[:5]:
            assert (lhs - rhs).magnitude_at(point) < 1e-12

    def test_leibniz_over_scalar_multiplication(self, model, potential, points, sections):
        x = basis_vector(2)
        scalar = ex.sin(ex.U) + ex.quotient(ex.R, ex.const(4.0))
        psi = sections.build([ex.const(x) for x in sections.draws[1]])
        lhs = covariant_derivative(x, psi.scaled_real(scalar), potential)
        rhs = covariant_derivative(x, psi, potential).scaled_real(scalar) + psi.scaled_real(
            x.apply(scalar)
        )
        for point in points[:5]:
            assert (lhs - rhs).magnitude_at(point) < 1e-12

    def test_section_curvature_identity(self, model, potential, sections, operator_points):
        check = curvature_section_check(
            model, potential, sections, operator_points, seed=902
        )
        assert check.passed and check.worst_error < 1e-12


class TestOperators:
    def test_constant_function_acts_as_scalar(self, model, potential, sections, points):
        """c-hat psi = -c psi in either convention (H_c = 0)."""
        psi = sections.build([ex.const(x) for x in sections.draws[0]])
        for hermitian in (True, False):
            applied = apply_variant(ex.const(2.5), psi, model, potential, hermitian)
            expected = psi.scaled_real(ex.const(-2.5))
            for point in points[:4]:
                assert (applied - expected).magnitude_at(point) < 1e-13

    def test_radius_on_unit_section_nonhermitian(self, model, potential):
        """The variant without i gives r-hat 1 = -i r^2 e^(2 warp)/m - r,
        which is -3-3i at (m=1, r=3)."""
        point = dict(u=1.0, v=1.0, r=3.0, t=0.0, m=1.0)
        applied = apply_variant(ex.R, Section(ex.ONE, ex.ZERO), model, potential, False)
        assert applied.evaluate_at(point) == pytest.approx(-3.0 - 3.0j, rel=1e-13)

    def test_radius_on_unit_section_hermitian(self, model, potential):
        """The bracket-compatible operator gives r-hat 1 = r^2 e^(2 warp)/m - r,
        real-valued; it vanishes at r = 3m."""
        point = dict(u=1.0, v=1.0, r=3.0, t=0.0, m=1.0)
        applied = apply_operator(ex.R, Section(ex.ONE, ex.ZERO), model, potential)
        assert applied.evaluate_at(point) == pytest.approx(0.0, abs=1e-13)
        far = dict(u=1.0, v=1.0, r=4.0, t=0.0, m=1.0)
        assert apply_operator(ex.R, Section(ex.ONE, ex.ZERO), model, potential).evaluate_at(
            far
        ) == pytest.approx(16.0 * 0.5 - 4.0, rel=1e-13)

    def test_colatitude_on_winding_section(self, model, potential):
        """u-hat on exp(iv): hand-composed closed action, both conventions."""
        psi = Section(ex.cos(ex.V), ex.sin(ex.V))
        point = dict(u=math.pi / 2, v=1.0, r=3.0, t=0.0, m=1.0)
        h_u = FOUR_PI / (1.0 * math.sin(point["u"]))
        theta_hu = (1.0 - math.cos(point["u"])) / math.sin(point["u"])
        base = complex(math.cos(point["v"]), math.sin(point["v"]))
        expected_plain = (h_u * 1j - 1j * theta_hu) * base - point["u"] * base
        got_plain = apply_variant(ex.U, psi, model, potential, False)
        assert got_plain.evaluate_at(point) == pytest.approx(expected_plain, rel=1e-13)
        expected_hermitian = 1j * (h_u * 1j - 1j * theta_hu) * base - point["u"] * base
        got_hermitian = apply_operator(ex.U, psi, model, potential)
        assert got_hermitian.evaluate_at(point) == pytest.approx(expected_hermitian, rel=1e-13)

    def test_linearity(self, model, potential, sections, operator_points):
        """(f+h)-hat = f-hat + h-hat and (c f)-hat = c f-hat on sections."""
        f = ex.sin(ex.U)
        h = ex.quotient(ex.R, ex.const(2.0))
        psi = sections.build([ex.const(x) for x in sections.draws[2]])
        combined = apply_operator(ex.add(f, h), psi, model, potential)
        split = apply_operator(f, psi, model, potential) + apply_operator(
            h, psi, model, potential
        )
        scaled = apply_operator(ex.mul(ex.const(3.5), f), psi, model, potential)
        rescaled = apply_operator(f, psi, model, potential).scaled_real(ex.const(3.5))
        for point in operator_points[:6]:
            scale = max(1.0, combined.magnitude_at(point))
            assert (combined - split).magnitude_at(point) < 1e-10 * scale
            assert (scaled - rescaled).magnitude_at(point) < 1e-10 * scale

    def test_derivative_part_split(self, model, potential, sections, points):
        operator = prequantum_operator(ex.R, model, potential)
        psi = sections.build([ex.const(x) for x in sections.draws[3]])
        recombined = operator.derivative_part(psi) - psi.scaled_real(ex.R)
        applied = operator.apply(psi)
        for point in points[:4]:
            assert recombined.evaluate_at(point) == pytest.approx(
                applied.evaluate_at(point), rel=1e-12, abs=1e-12
            )


class TestCommutators:
    def test_all_six_pairs(self, model, potential, sections, operator_points):
        results = commutator_suite(
            model, potential, sections, operator_points, seed=902
        )
        names = [r.name for r in results]
        assert names == [
            "commutator_uv",
            "commutator_ur",
            "commutator_ut",
            "commutator_vr",
            "commutator_vt",
            "commutator_rt",
        ]
        for result in results:
            assert result.passed, result.name
        modes = {r.name: r.details["mode"] for r in results}
        assert modes["commutator_uv"] == modes["commutator_rt"] == "relative"
        assert modes["commutator_ur"] == "absolute"

    def test_nonhermitian_variant_breaks_relation(self, model, potential, sections, operator_points):
        """Dropping the imaginary unit destroys the bracket-commutator
        correspondence by an order-one relative error."""
        first = random_sections(model.mass, 2, seed=414)
        results = commutator_suite(model, potential, first, operator_points[:5], seed=902)
        result = {r.name: r for r in results}["commutator_uv"]
        assert result.passed
        assert result.details["nonhermitian_residual"] > 1e-2

    def test_nonhermitian_variant_only_where_the_bracket_is_nonzero(
        self, model, potential, sections, operator_points
    ):
        """Where the bracket folds to zero both sides of the relation vanish
        for either variant, so the nonhermitian one is built for uv and rt
        alone."""
        first = random_sections(model.mass, 2, seed=414)
        results = commutator_suite(model, potential, first, operator_points[:5])
        carrying = [r.name for r in results if "nonhermitian_residual" in r.details]
        assert carrying == ["commutator_uv", "commutator_rt"]

    def test_display_closed_forms(self, model, potential, sections, operator_points):
        """[u-hat, v-hat] = 4 pi i (1/sin u)-hat and
        [r-hat, t-hat] = 4 pi i (r^2 (1-2m/r)^(1/2))-hat."""
        first = random_sections(model.mass, 3, seed=414)
        results = commutator_suite(model, potential, first, operator_points[:6])
        by_name = {r.name: r for r in results}
        assert by_name["commutator_uv"].details["display_residual"] < 1e-11
        assert by_name["commutator_rt"].details["display_residual"] < 1e-11

    def test_gauge_covariance(self, model, potential, operator_points):
        """Under theta -> theta + d(chi), psi -> exp(i chi) psi the residual
        magnitudes of the commutator relation are unchanged pointwise."""
        chi = ex.mul(ex.sin(ex.U), ex.quotient(ex.T, ex.const(3.0)))
        shifted = potential.gauge_shifted(chi)
        family = random_sections(model.mass, 1, seed=77)
        psi = family.build([ex.const(x) for x in family.draws[0]])
        transformed = psi.scaled_real(ex.cos(chi)) + psi.times_i_scaled(ex.sin(chi))

        def relation_residual(pot, section):
            lhs = apply_operator(
                ex.mul(
                    ex.const(FOUR_PI),
                    ex.power(ex.mul(ex.M, ex.sin(ex.U)), -1),
                ),
                section,
                model,
                pot,
            )
            f_op = prequantum_operator(ex.U, model, pot)
            h_op = prequantum_operator(ex.V, model, pot)
            commutator = f_op.apply(h_op.apply(section)) - h_op.apply(f_op.apply(section))
            return lhs - commutator.times_i_scaled(ex.const(-1.0 / model.mass))

        base = relation_residual(potential, psi)
        moved = relation_residual(shifted, transformed)
        for point in operator_points[:6]:
            assert moved.magnitude_at(point) == pytest.approx(
                base.magnitude_at(point), abs=1e-11
            )


class TestScaleModes:
    """The connection, the operators and their relations share one hbar:
    m in plain scaling, 2 pi m in Weil scaling."""

    @pytest.mark.parametrize("scale", list(CurvatureScale))
    def test_operator_checks_pass(self, model, sections, operator_points, scale):
        potential = ConnectionPotential.monopole(model, scale)
        commutators = commutator_suite(model, potential, sections, operator_points)
        chain = geometric_operator_report(model, potential, sections, operator_points)[0]
        curvature = curvature_section_check(model, potential, sections, operator_points)
        for result in (curvature, *commutators, chain):
            assert result.passed, (result.name, result.worst_error)
        for result in commutators:
            assert result.details.get("display_residual", 0.0) < 1e-11, result.name

    def test_separable_residual_follows_hbar(self, model, potential, operator_points):
        """In Weil scaling theta shrinks by 2 pi as hbar grows by 2 pi, so
        hbar theta(H_r) is unchanged and only the -hbar h kappa term of the
        factor grows; the factor still matches the operator's action."""
        kappa, ell = 0.1, 1.5
        h = hamiltonian_field(ex.R, model).components[3]
        psi = phase_section(kappa)
        plain, _ = separable_radial_residual(kappa, ex.ONE, ell, model, potential)
        weil = ConnectionPotential.monopole(model, CurvatureScale.WEIL)
        re_f, im_f = separable_radial_residual(kappa, ex.ONE, ell, model, weil)
        direct = apply_operator(ex.R, psi, model, weil) - psi.scaled_real(ex.const(ell))
        for point in operator_points:
            factor = complex(re_f.evaluate(point), im_f.evaluate(point))
            expected = factor * psi.evaluate_at(point)
            assert abs(direct.evaluate_at(point) - expected) < 1e-9 * max(1.0, abs(expected))
            shift = re_f.evaluate(point) - plain.evaluate(point)
            assert shift == pytest.approx(
                -(2.0 * math.pi - 1.0) * kappa * h.evaluate(point), rel=1e-12
            )


class TestGeometricOperators:
    def test_chain_rule_and_printed_relations(self, model, potential, sections, operator_points):
        chain, area, volume = geometric_operator_report(
            model, potential, sections, operator_points, seed=902
        )
        assert chain.name == "operator_chain_rule"
        assert chain.passed and chain.worst_error < 1e-12
        assert not area.assertable and not volume.assertable
        assert area.details["expected_nonzero"]
        # the printed relations really do differ from the chain rule
        assert area.worst_error > 1e-3
        assert volume.worst_error > 1e-3

    def test_radius_reduces_to_itself(self, model, potential, sections, points):
        """g(r) = r collapses the chain rule to r-hat = r-hat."""
        operator = prequantum_operator(ex.R, model, potential)
        psi = sections.build([ex.const(x) for x in sections.draws[0]])
        lhs = operator.apply(psi)
        rhs = operator.derivative_part(psi) - psi.scaled_real(ex.R)
        for point in points[:4]:
            assert lhs.evaluate_at(point) == rhs.evaluate_at(point)


def scan_array(scanned, sections, points):
    """A ``_scan`` result, one flat (member, point) list per part, as an
    array shaped (part, member, point)."""
    return np.array(scanned).reshape(len(scanned), len(sections.draws), len(points))


def per_section_scan(parts, sections, points):
    """``_scan`` without parameters: the concrete trees of each member,
    built and evaluated one member at a time; shape (part, member, point)."""
    magnitudes = []
    for draw in sections.draws:
        psi = sections.build([ex.const(x) for x in draw])
        values = ex.evaluate_many([x for built in parts(psi) for x in (built.re, built.im)], points)
        magnitudes.append(np.hypot(values[0::2], values[1::2]))
    return np.stack(magnitudes, axis=1)


def assert_scan_matches(scanned, concrete, residuals=(0,), residual_tol=1e-12):
    """Parts agree to relative 1e-12 of the scan's largest magnitude, and
    the residual parts, which cancel larger terms, to ``residual_tol`` of
    it.  Test sections are of order one, so the scale is at least 1 for
    scans made of residuals alone."""
    assert scanned.shape == concrete.shape
    scale = max(1.0, peak(concrete.ravel().tolist()))
    for k, (scanned_part, concrete_part) in enumerate(zip(scanned, concrete)):
        if k in residuals:
            np.testing.assert_allclose(scanned_part, concrete_part, rtol=0, atol=residual_tol * scale)
        else:
            np.testing.assert_allclose(scanned_part, concrete_part, rtol=1e-12, atol=1e-12 * scale)


# The re parts of the first three seed-414 sections at unit mass, pinned so
# that members built from the family keep the seeded sections' trees; the
# im parts swap cos for sin.
SEED_414_SECTIONS = (
    "(* (+ (* -0.3029549892744339 (/ u 3.141592653589793)) "
    "(* 0.8859706015701985 (/ v 6.283185307179586)) (* 0.48574247891303757 (/ r 5.0)) "
    "(* -0.5319988188828488 (/ t 5.0)) (* -0.4615912989750557 (pow (/ r 5.0) 2)) "
    "-0.155221822155589) (cos (+ (* -2.0 v) (* -0.14581086423603473 t))))",
    "(* (+ (* 0.8668937957806804 (/ u 3.141592653589793)) "
    "(* 0.890975158080832 (/ v 6.283185307179586)) (* 0.39605640924279184 (/ r 5.0)) "
    "(* -0.7427125472937233 (/ t 5.0)) (* -0.3105770291466048 (pow (/ r 5.0) 2)) "
    "0.09189030448199587) (cos (+ (* 2.0 v) (* 0.2987584686234888 t))))",
    "(* (+ (* -0.6781731842826744 (/ u 3.141592653589793)) "
    "(* 0.20877382044002357 (/ v 6.283185307179586)) (* -0.40119625581663265 (/ r 5.0)) "
    "(* -0.3812445876113051 (/ t 5.0)) (* -0.11222798933982236 (pow (/ r 5.0) 2)) "
    "-0.4953186438263988) (cos (+ (* 2.0 v) (* -0.28272458934609224 t))))",
)


class TestSectionFamily:
    def test_members_keep_their_trees(self):
        family = random_sections(1.0, 3, 414)
        assert np.shape(family.draws) == (3, 8)
        for draw, re in zip(family.draws, SEED_414_SECTIONS):
            psi = family.build([ex.const(x) for x in draw])
            assert psi.re.to_prefix() == re
            assert psi.im.to_prefix() == re.replace("(cos ", "(sin ")


class TestFamilyScan:
    """``_scan`` builds its trees once over the family's parameters and must
    agree with the concrete trees of every member."""

    @pytest.fixture
    def scans(self, monkeypatch):
        recorded = []
        family_scan = prequantum._scan

        def recording(parts, sections, points):
            scanned = family_scan(parts, sections, points)
            recorded.append(
                (scan_array(scanned, sections, points), per_section_scan(parts, sections, points))
            )
            return scanned

        monkeypatch.setattr(prequantum, "_scan", recording)
        return recorded

    @pytest.mark.parametrize("seed", [414, 7, 2024])
    def test_matches_per_section_trees(self, model, potential, operator_points, scans, seed):
        sections = random_sections(model.mass, 3, seed)
        curvature_section_check(model, potential, sections, operator_points)
        ((scanned, concrete),) = scans
        assert scanned.shape == (6, 3, len(operator_points))
        assert_scan_matches(scanned, concrete, residuals=range(6))

        scans.clear()
        commutator_suite(model, potential, sections, operator_points)
        ((scanned, concrete),) = scans
        assert scanned.shape == (28, 3, len(operator_points))
        # pair by pair: uv and rt, whose brackets are nonzero, give their
        # hermitian parts with the two display parts, then their
        # nonhermitian parts; the other pairs give their hermitian parts
        bounds = np.cumsum([0, 5, 3, 3, 3, 3, 3, 5, 3])
        for start, stop in zip(bounds[:-1], bounds[1:]):
            pair_scanned, pair_concrete = scanned[start:stop], concrete[start:stop]
            # parts: residual, bracket side, commutator side, and for uv and
            # rt the display residual and display.  A residual cancels two
            # operator products larger than the bracket side, so its
            # roundoff relative to the pair's peak is larger too (the checks
            # report up to 7e-12 at defaults).  Where the bracket folds to
            # zero, the commutator side is a residual as well.
            residuals = {0, 3} | ({2} if peak(pair_concrete[1].ravel().tolist()) == 0.0 else set())
            assert_scan_matches(pair_scanned, pair_concrete, residuals, residual_tol=1e-11)

        scans.clear()
        geometric_operator_report(model, potential, sections, operator_points)
        ((scanned, concrete),) = scans
        assert scanned.shape == (10, 3, len(operator_points))
        # residual and left side of the three chain rules, then of the two
        # printed relations
        for start in range(0, 10, 2):
            assert_scan_matches(scanned[start : start + 2], concrete[start : start + 2])

    def test_second_order_parts(self, potential, sections, operator_points):
        # the check parts are first order in psi once the commutators cancel,
        # so second derivatives of the family are compared here on parts that
        # keep them
        def parts(psi):
            return [
                covariant_derivative(
                    basis_vector(a), covariant_derivative(basis_vector(b), psi, potential), potential
                )
                for a, b in ((2, 3), (3, 2), (0, 0), (1, 2))
            ]

        scanned = prequantum._scan(parts, sections, operator_points)
        assert_scan_matches(
            scan_array(scanned, sections, operator_points),
            per_section_scan(parts, sections, operator_points),
            residuals=(),
        )

    def test_guard_at_one_point_raises(self, potential, operator_points):
        # 1/(t - p0) has a zero denominator at the one sample point with
        # t = p0 for the second member, and none for the first
        t = operator_points[4]["t"]
        poles = SectionFamily(
            lambda row: Section(ex.quotient(ex.ONE, ex.T - row[0]), ex.ZERO),
            np.array([[t + 100.0], [t]]),
        )

        def parts(psi):
            return [covariant_derivative(basis_vector(3), psi, potential)]

        first = SectionFamily(poles.build, poles.draws[:1])
        scanned = prequantum._scan(parts, first, operator_points)
        assert scan_array(scanned, first, operator_points).shape == (1, 1, len(operator_points))
        with pytest.raises(EvaluationError):
            prequantum._scan(parts, poles, operator_points)


class TestRadialResiduals:
    def test_zero_section(self, model, potential):
        box = Box.default(model.mass)
        residual, norm = radial_eigen_residual(ZERO_SECTION, 3.7, model, potential, box)
        assert norm == 0.0
        point = dict(u=1.0, v=1.0, r=3.0, t=0.0, m=1.0)
        assert residual.magnitude_at(point) == 0.0

    def test_separable_matches_operator(self, model, potential, operator_points):
        """The algebraic factor equals the hermitian operator's action on the
        separable ansatz to 1e-10."""
        kappa, ell = 0.1, 1.5
        chi = ex.ONE + ex.power(ex.quotient(ex.R, ex.const(10.0)), 2)
        psi = phase_section(kappa, chi)
        re_f, im_f = separable_radial_residual(kappa, chi, ell, model, potential)
        direct = apply_operator(ex.R, psi, model, potential) - psi.scaled_real(ex.const(ell))
        for point in operator_points:
            factor = complex(re_f.evaluate(point), im_f.evaluate(point))
            expected = factor * psi.evaluate_at(point)
            assert abs(direct.evaluate_at(point) - expected) < 1e-10

    def test_rejects_profile_with_angular_dependence(self, model, potential):
        with pytest.raises(ValueError):
            separable_radial_residual(0.1, ex.sin(ex.U), 0.0, model, potential)

    def test_norm_shift_is_quadratic(self, model, potential):
        """rho(ell)^2 = ||A psi||^2 - 2 ell <A psi, psi> + ell^2 ||psi||^2,
        so about the minimiser ell*, rho(ell* + d)^2 - rho(ell*)^2 = d^2 ||psi||^2."""
        box = Box(u=(0.8, 2.2), v=(1.0, 5.0), r=(2.6, 6.0), t=(-0.8, 0.8))
        psi = phase_section(0.2, ex.ONE)
        norms = {}
        for ell in (2.0, 2.5, 3.0):
            _, norms[ell] = radial_eigen_residual(psi, ell, model, potential, box)
        psi_norm = box_l2_norm(psi, model, box)
        # rho^2 is a parabola in ell with curvature ||psi||^2: second
        # difference of rho^2 over the equispaced ells equals 2 d^2 ||psi||^2
        second_difference = norms[2.0] ** 2 - 2.0 * norms[2.5] ** 2 + norms[3.0] ** 2
        assert second_difference == pytest.approx(2.0 * 0.5**2 * psi_norm**2, rel=1e-9)

    def test_norm_matches_pointwise_loop(self, model):
        """A sequential sum of 6^4 positive terms, so the batched (pairwise)
        sum agrees to within 6^4 ulp of the squared norm."""
        box = Box(u=(0.8, 2.2), v=(1.0, 5.0), r=(2.6, 6.0), t=(-0.8, 0.8))
        family = random_sections(model.mass, 1, seed=77)
        psi = family.build([ex.const(x) for x in family.draws[0]])
        density = wedge(model.symplectic_form, model.symplectic_form).coefficient((0, 1, 2, 3))
        rule = tuple(map(np.array, gauss_legendre(6)))
        rules = [
            (0.5 * (high - low) * (x + 1.0) + low, 0.5 * (high - low) * w)
            for (low, high), (x, w) in zip(box, [rule] * 4)
        ]
        total = 0.0
        for (u, wu), (v, wv), (r, wr), (t, wt) in itertools.product(
            *[list(zip(*rule)) for rule in rules]
        ):
            point = dict(u=float(u), v=float(v), r=float(r), t=float(t), m=model.mass)
            weight = wu * wv * wr * wt
            total += weight * 0.5 * density.evaluate(point) * psi.magnitude_at(point) ** 2
        got = box_l2_norm(psi, model, box)
        assert abs(got**2 - total) <= 6**4 * 2.220446049250313e-16 * total

    def test_norm_positive_for_nonminimal_shift(self, model, potential):
        box = Box.default(model.mass)
        psi = phase_section(0.15)
        _, at_zero = radial_eigen_residual(psi, 0.0, model, potential, box)
        assert at_zero > 0.0


class TestIntegrality:
    def test_unit_mass(self, model):
        report = integrality_report(model, QuadratureSpec(n_u=32, n_v=64, r0=3.0))
        assert not report.assertable
        details = report.details
        assert details["surface_class"] == pytest.approx(1.0, abs=1e-10)
        assert details["options"]["curvature_sympl_over_m"]["integer"]
        assert details["weil_normalized_class"]["class"] == pytest.approx(
            0.15915494309189535, rel=1e-10
        )
        assert not details["weil_normalized_class"]["integer"]

    def test_integer_mass_quantization_flag(self):
        model = schwarzschild(3.0)
        report = integrality_report(model, QuadratureSpec(n_u=32, n_v=64, r0=9.0))
        details = report.details
        assert details["options"]["curvature_sympl_over_m"]["class"] == pytest.approx(1.0)
        assert details["options"]["curvature_sympl"]["integer"]

    def test_fractional_mass_not_quantized(self):
        model = schwarzschild(2.5)
        report = integrality_report(model, QuadratureSpec(n_u=32, n_v=64, r0=7.0))
        details = report.details
        assert details["options"]["curvature_sympl_over_m"]["integer"]
        assert not details["options"]["curvature_sympl"]["integer"]
        assert not details["weil_normalized_class"]["integer"]
