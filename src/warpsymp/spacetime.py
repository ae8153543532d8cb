"""Static spherically symmetric models and their structural identity checks.

Builds the exterior-region Schwarzschild model (or a generalised static
model from an arbitrary r-dependent warp and leaf area form), derives the
flux 2-form, its Hodge dual, and the symplectic 2-form through the
exterior-calculus pipeline, and provides sampled verification reports for
the identities these objects satisfy:

* the gradient relation  i_R g = -d(warp),
* unit norm and orthogonality of the observer field,
* flux ^ flux = 0  and  d(flux) = -d(warp) ^ flux,
* closedness of lapse * flux, exactness of the dual flux, and the
  top-degree identity for the square of the symplectic form.

The symplectic form is always produced by the construction pipeline
(lapse * flux + dual flux); its coordinate expression is only ever used as
a derived assertion, never entered by hand.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import expressions as ex
from .expressions import Expression
from .exterior import (
    KForm,
    MetricTensor,
    VectorField,
    exterior_derivative,
    flat,
    hodge_star,
    interior_product,
    metric_inner,
    sharp,
    wedge,
)
from .reports import (
    BELOW, GROUP_ROWS, Check, CheckResult, least_point, residual_results, selector
)
from .sampling import sample_points

FOUR_PI = 4.0 * math.pi


def schwarzschild_factor() -> Expression:
    """The lapse squared, 1 - 2m/r."""
    return ex.ONE - ex.const(2.0) * ex.M / ex.R


class SpacetimeModel(
    namedtuple(
        "SpacetimeModel",
        "mass warp metric gravitational_field observer_field lapse volume_form flux_form"
        " dual_flux_form symplectic_form closure_check darboux",
        defaults=(None, None),
    )
):
    """A static exterior model together with its derived structure.

    ``mass`` is a float, ``warp`` and ``lapse`` Expressions, ``metric`` a
    MetricTensor, the fields VectorFields, the forms KForms and
    ``closure_check`` a CheckResult, or None where no closure check ran.
    ``flux_form`` is the angular 2-form -(1/4pi) i_R i_X vol whose sphere
    integral measures the mass; ``dual_flux_form`` is its Hodge dual; their
    combination ``symplectic_form`` = lapse * flux + dual is the closed
    nondegenerate 2-form the rest of the package works with.  ``darboux``
    is a Darboux chart ((P1, Q1), (P2, Q2)) of the symplectic form, with
    sympl = dP1^dQ1 + dP2^dQ2, (P1, Q1) functions of (u, v) and (P2, Q2) of
    (r, t), or None where none is derived; the closed forms of the
    Hamiltonian and prequantum layers are read off it.  Instances are
    immutable and safe to share across threads.
    """

    __slots__ = ()


def darboux_chart(model: SpacetimeModel) -> tuple:
    """The model's Darboux chart ((P1, Q1), (P2, Q2)); a ValueError for a
    model that has none, so that no closed form is guessed for it."""
    if model.darboux is None:
        raise ValueError("the model has no Darboux chart (P1, Q1, P2, Q2) for its symplectic form")
    return model.darboux


def _derive_structure(mass, metric, warp, gravitational_field, observer_field) -> SpacetimeModel:
    """The model whose entered fields are given and whose forms are derived."""
    if not (isinstance(mass, (int, float)) and math.isfinite(mass) and mass > 0):
        raise ValueError(f"mass must be a positive finite number, got {mass!r}")
    volume_form = hodge_star(KForm.scalar(ex.ONE), metric)
    flux_form = interior_product(
        gravitational_field, interior_product(observer_field, volume_form)
    ).scaled(ex.const(-1.0 / FOUR_PI))
    dual_flux_form = hodge_star(flux_form, metric)
    lapse = ex.exp(warp)
    return SpacetimeModel(
        mass=float(mass),
        warp=warp,
        metric=metric,
        gravitational_field=gravitational_field,
        observer_field=observer_field,
        lapse=lapse,
        volume_form=volume_form,
        flux_form=flux_form,
        dual_flux_form=dual_flux_form,
        symplectic_form=flux_form.scaled(lapse) + dual_flux_form,
    )


def schwarzschild(mass: float) -> SpacetimeModel:
    """Exterior Schwarzschild model of the given mass (geometric units).

    The metric, warp, gravitational field and observer field are entered in
    their standard closed forms; everything else is derived.  The Darboux
    chart is sympl = dP1^dv + dP2^dt with P1 = (m/4pi)(1 - cos u), which
    vanishes at the north pole, and P2 = lapse/4pi, the coefficient of
    ``dual_flux_potential``.
    """
    factor = schwarzschild_factor()
    metric = MetricTensor(
        (
            ex.power(ex.R, 2),
            ex.mul(ex.power(ex.R, 2), ex.power(ex.sin(ex.U), 2)),
            ex.power(factor, -1),
            ex.mul(ex.NEG_ONE, factor),
        )
    )
    warp = ex.log(ex.power(factor, ex.Rational(1, 2)))
    gravitational_field = VectorField(
        (ex.ZERO, ex.ZERO, ex.mul(ex.NEG_ONE, ex.quotient(ex.M, ex.power(ex.R, 2))), ex.ZERO)
    )
    observer_field = VectorField(
        (ex.ZERO, ex.ZERO, ex.ZERO, ex.mul(ex.NEG_ONE, ex.power(factor, ex.Rational(-1, 2))))
    )
    model = _derive_structure(mass, metric, warp, gravitational_field, observer_field)
    polar = ex.mul(ex.const(1.0 / FOUR_PI), ex.M, ex.ONE - ex.cos(ex.U))
    energy = dual_flux_potential(model).coefficient((3,))
    return model._replace(darboux=((polar, ex.V), (energy, ex.T)))


def generalized_static(
    warp: Expression,
    leaf_area_form: KForm,
    mass: float,
    check_samples: int = 32,
    check_seed: int = 97,
    closure_threshold: float = 1e-11,
) -> SpacetimeModel:
    """Static warped model from an r-dependent warp and a leaf area form.

    The metric is g0 - exp(2 warp) dt (x) dt with g0 block-diagonal: a leaf
    block whose area form is the given 2-form and a radial entry
    exp(-2 warp).  Only the leaf area enters the derived structure, so the
    leaf block is stored as the conformal representative rho * (du^2 + dv^2);
    the gravitational field is the upward gradient of -warp and the observer
    field the unit timelike direction.

    The closure hypothesis d(flux) = -d(warp) ^ flux is *checked* on a
    seeded sample, not assumed: the model is returned either way with the
    outcome attached as ``closure_check``.  No Darboux chart is derived, so
    the closed forms read off one are refused for this model.
    """
    for name in ("u", "v", "t"):
        if not ex.is_zero(warp.diff(name)):
            raise ValueError("the warp must depend on the radius only")
    if leaf_area_form.degree != 2:
        raise ValueError("the leaf area form must be a 2-form")
    if any(index != (0, 1) for index, _ in leaf_area_form.terms):
        raise ValueError("the leaf area form must live in the du^dv plane")
    density = leaf_area_form.coefficient((0, 1))

    metric = MetricTensor(
        (
            density,
            density,
            ex.exp(ex.mul(ex.const(-2.0), warp)),
            ex.mul(ex.NEG_ONE, ex.exp(ex.mul(ex.const(2.0), warp))),
        )
    )
    warp_differential = exterior_derivative(KForm.scalar(warp))
    gravitational_field = sharp(warp_differential.scaled(ex.NEG_ONE), metric)
    observer_field = VectorField(
        (ex.ZERO, ex.ZERO, ex.ZERO, ex.mul(ex.NEG_ONE, ex.exp(ex.mul(ex.NEG_ONE, warp))))
    )
    model = _derive_structure(mass, metric, warp, gravitational_field, observer_field)

    flux, symplectic = model.flux_form, model.symplectic_form
    residual = exterior_derivative(flux) + wedge(warp_differential, flux)
    points = sample_points(model.mass, check_samples, check_seed)
    # the model's own record, not a catalogue check: the suite runs Schwarzschild
    check = Check("flux_closure_hypothesis", closure_threshold, BELOW, False)
    (closure_check,) = residual_results(
        {check: (dict(residual.terms).values(), None)}, points, check_seed
    )
    (square,) = ex.evaluate_many([wedge(symplectic, symplectic).coefficient((0, 1, 2, 3))], points)
    closure_check.details["symplectic_square_min"] = float(min(map(abs, square), default=0.0))
    return model._replace(closure_check=closure_check)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


# The group functions below judge each result by its catalogue row.  A
# threshold left at None is each check's own tolerance; one given applies to
# every check its parameter names.


def verify_gradient_relation(model, points, threshold=None, seed=None) -> CheckResult:
    """Check i_R g + d(warp) = 0 at the sampled points."""
    (check,) = GROUP_ROWS["gradient"]
    residual = flat(model.gravitational_field, model.metric) + exterior_derivative(
        KForm.scalar(model.warp)
    )
    return residual_results({check: (dict(residual.terms).values(), threshold)}, points, seed)[0]


def verify_observer(model, points, threshold=None, seed=None, only=None) -> list:
    """Check g(X, X) = -1 and g(R, X) = 0 at the sampled points; ``only``
    names the checks to compute (None for both)."""
    wanted = selector(only)
    x = model.observer_field
    unit = metric_inner(x, x, model.metric) + ex.ONE
    orthogonal = metric_inner(model.gravitational_field, x, model.metric)
    residuals = {
        check: ([expression], threshold)
        for check, expression in zip(GROUP_ROWS["observer"], (unit, orthogonal))
        if wanted(check)
    }
    return residual_results(residuals, points, seed)


def _flux_volume_reference(model) -> KForm:
    """-(g(R,R) / (4 pi lapse)) r^2 sin(u) du^dv^dr, the 3-form d(flux) equals."""
    r_norm = metric_inner(model.gravitational_field, model.gravitational_field, model.metric)
    coefficient = ex.mul(
        ex.NEG_ONE,
        ex.quotient(r_norm, ex.mul(ex.const(FOUR_PI), model.lapse)),
        ex.power(ex.R, 2),
        ex.sin(ex.U),
    )
    return KForm.from_terms(3, {(0, 1, 2): coefficient})


def verify_omega_identities(
    model, points, threshold=None, square_threshold=None, seed=None, only=None
) -> list:
    """Check the three structural identities of the flux 2-form; ``only``
    names the checks to compute (None for all three).  ``threshold`` serves
    the closure relation and the volume identity."""
    wanted = selector(only)
    square_check, closure_check, volume_check = GROUP_ROWS["omega"]
    flux = model.flux_form
    residuals = {}
    if wanted(square_check):
        residuals[square_check] = dict(wedge(flux, flux).terms).values(), square_threshold
    if wanted(closure_check):
        warp_differential = exterior_derivative(KForm.scalar(model.warp))
        closure = exterior_derivative(flux) + wedge(warp_differential, flux)
        residuals[closure_check] = dict(closure.terms).values(), threshold
    if wanted(volume_check):
        volume_identity = exterior_derivative(flux) - _flux_volume_reference(model)
        residuals[volume_check] = dict(volume_identity.terms).values(), threshold
    return residual_results(residuals, points, seed)


def dual_flux_potential(model) -> KForm:
    """The 1-form lapse * dt / (4 pi), whose exterior derivative is the dual flux."""
    return KForm.from_terms(1, {(3,): ex.quotient(model.lapse, ex.const(FOUR_PI))})


def verify_symplectic(
    model, points, threshold=None, potential_threshold=None, seed=None, only=None
) -> list:
    """Check the identities behind nondegeneracy and closedness of the
    symplectic form; ``only`` names the checks to compute (None for all).
    ``threshold`` serves the closedness and the square identity,
    ``potential_threshold`` the dual flux's potential and square."""
    wanted = selector(only)
    closed, potential, dual_square, square_identity, nondegeneracy = GROUP_ROWS["symplectic"]
    residuals = {}
    if wanted(closed):
        rescaled = exterior_derivative(model.flux_form.scaled(model.lapse))
        residuals[closed] = dict(rescaled.terms).values(), threshold
    if wanted(potential):
        exactness = model.dual_flux_form - exterior_derivative(dual_flux_potential(model))
        residuals[potential] = dict(exactness.terms).values(), potential_threshold
    if wanted(dual_square):
        form = wedge(model.dual_flux_form, model.dual_flux_form)
        residuals[dual_square] = dict(form.terms).values(), potential_threshold

    square = wedge(model.symplectic_form, model.symplectic_form)
    if wanted(square_identity):
        r_norm = metric_inner(model.gravitational_field, model.gravitational_field, model.metric)
        scale = ex.mul(ex.const(2.0 / FOUR_PI**2), model.lapse, r_norm)
        identity = square - model.volume_form.scaled(scale)
        residuals[square_identity] = dict(identity.terms).values(), threshold
    results = residual_results(residuals, points, seed) if residuals else []

    if wanted(nondegeneracy):
        (values,) = ex.evaluate_many([square.coefficient((0, 1, 2, 3))], points)
        minimum, at = least_point(list(map(abs, values)), points)
        same_sign = all(x > 0 for x in values) or all(x < 0 for x in values)
        verdict = len(values) > 0 and same_sign and minimum > 0.0
        details = {"single_sign": same_sign, "min_magnitude": minimum}
        results.append(nondegeneracy.judged(minimum, at, seed, verdict=verdict, details=details))
    return results


def foliation_report(
    model, points, pfaffian_threshold=None, volume_threshold=None, seed=None, only=None
) -> list:
    """Sampled nondegeneracy checks for the spatial foliation by spheres.

    The leaf Pfaffian is the du^dv coefficient of the flux form restricted
    to a sphere; its minimum |Pfaffian|/m (dimensionless) must stay above
    ``pfaffian_threshold``.  The 3-form -d(warp)^flux is the induced volume
    on the spatial slice; the minimum magnitude of its (already
    dimensionless) coefficient must stay above ``volume_threshold``.
    Restricted to the 2-dimensional leaves every 2-form is closed, so leaf
    closedness is structurally true.  The Pfaffian vanishes like sin(u)
    toward the poles; the closedness details record whether this is a pure
    coordinate artifact (the ratio Pfaffian/sin(u) does not depend on u).
    ``only`` names the checks to compute (None for all three).
    """
    wanted = selector(only)
    pfaffian_check, volume_check, closedness = GROUP_ROWS["foliation"]
    pfaffian = model.flux_form.coefficient((0, 1))
    warp_differential = exterior_derivative(KForm.scalar(model.warp))
    volume3 = wedge(warp_differential.scaled(ex.NEG_ONE), model.flux_form)
    # check, coefficient, what its magnitude is divided by, threshold, bound
    lower_bounds = [
        bound
        for bound in (
            (
                pfaffian_check,
                pfaffian,
                model.mass,
                pfaffian_threshold,
                "minimum |pfaffian|/mass over samples",
            ),
            (
                volume_check,
                volume3.coefficient((0, 1, 2)),
                1.0,
                volume_threshold,
                "minimum |volume3 coefficient| over samples",
            ),
        )
        if wanted(bound[0])
    ]

    results = []
    if lower_bounds:
        columns = ex.evaluate_many([bound[1] for bound in lower_bounds], points)
        for (check, _, unit, threshold, bound), column in zip(lower_bounds, columns):
            minimum, at = least_point([abs(x) / unit for x in column], points)
            worst = minimum if math.isfinite(minimum) else 0.0
            results.append(check.judged(worst, at, seed, threshold, details={"bound": bound}))

    if wanted(closedness):
        # Pfaffian / sin(u) must not depend on u if the pole degeneracy is a
        # pure coordinate effect; compare at two colatitudes, same radius.
        colatitudes = (1e-3, math.pi / 2)
        radii = [3.0 * model.mass] * 2
        probe_points = ex.PointSet(colatitudes, [math.pi] * 2, radii, [0.0] * 2, model.mass)
        (values,) = ex.evaluate_many([pfaffian], probe_points)
        probe = [value / math.sin(u) for value, u in zip(values, colatitudes)]
        artifact = abs(probe[0] - probe[1]) <= 1e-9 * max(abs(probe[0]), abs(probe[1]))
        details = {
            "structural": "2-forms on 2-dimensional leaves are closed",
            "pole_degeneracy_is_coordinate_artifact": artifact,
        }
        results.append(closedness.judged(0.0, None, seed, details=details))
    return results
