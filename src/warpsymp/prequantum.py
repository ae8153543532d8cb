"""Prequantum connection, operator algebra, and the integrality report.

The line bundle is realised on the single cut chart (poles and azimuth cut
removed) through the Liouville form of the model's Darboux chart: with
sympl = dP1^dQ1 + dP2^dQ2 the potential theta = (P1 dQ1 + P2 dQ2) / hbar
has d(theta) = sympl / hbar, where the normalisation hbar is m (plain
scaling) or 2 pi m (Weil scaling).  The covariant derivative is

    nabla_X psi = X(psi) - i theta(X) psi,

whose curvature is -(i/hbar) sympl.  To a smooth function f one associates
the operator built from its Hamiltonian field; two variants are provided:

* hermitian (default):   f-hat = i hbar nabla_{H_f} - f
* nonhermitian variant:  f-hat =   hbar nabla_{H_f} - f

Only the hermitian variant turns Poisson brackets into commutators,
satisfying  bracket(f,h)-hat = -(i/hbar) [f-hat, h-hat]  identically; the
variant without the imaginary unit breaks that correspondence (by a term
proportional to the bracket plus a skewed derivative term) and is kept so
reports can quantify the difference.  For real f the hermitian operator is
symmetric on compactly supported sections with respect to the volume
induced by the symplectic form, because Hamiltonian fields are
divergence-free for it.

A global single-valued potential with these normalisations does not exist
(the sphere class of sympl/m integrates to 1, not 2 pi); the obstruction is
not hidden but quantified by ``integrality_report``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Callable
from enum import Enum

from . import expressions as ex
from .expressions import Expression, Immutable
from .exterior import (
    KForm,
    VectorField,
    basis_vector,
    exterior_derivative,
    pairing,
    wedge,
)
from .hamiltonian import (
    QuadratureSpec,
    coordinate_bracket_references,
    gauss_legendre,
    hamiltonian_field,
    poisson_bracket,
    surface_integral,
)
from .reports import GROUP_ROWS, CheckResult, peak, selector, worst_point
from .sampling import unit_draws
from .spacetime import FOUR_PI, SpacetimeModel, darboux_chart


class CurvatureScale(str, Enum):
    """Normalisation of the connection: d(theta) = sympl / hbar.  The same
    hbar scales the operators and their commutator relation."""

    PLAIN = "plain"  # hbar = m
    WEIL = "weil"  # hbar = 2 pi m

    @property
    def ratio(self) -> float:
        """hbar / m."""
        return 1.0 if self is CurvatureScale.PLAIN else 2.0 * math.pi

    def hbar(self) -> Expression:
        """hbar as an expression in the mass parameter."""
        return ex.mul(ex.const(self.ratio), ex.M)

    def factor(self) -> Expression:
        return ex.quotient(ex.ONE, self.hbar())


class ConnectionPotential(Immutable):
    """A real connection 1-form theta on the cut chart with its scaling;
    immutable."""

    __slots__ = ("theta", "scale")

    def __init__(self, theta: KForm, scale: CurvatureScale = CurvatureScale.PLAIN):
        if theta.degree != 1:
            raise ValueError("the connection potential must be a 1-form")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "scale", scale)

    @staticmethod
    def monopole(model: SpacetimeModel, scale: CurvatureScale = CurvatureScale.PLAIN):
        """The Liouville form (P1 dQ1 + P2 dQ2) / hbar of the model's Darboux
        chart; a ValueError if it has none.  For Schwarzschild it is the
        north monopole gauge, since P1 vanishes at the north pole."""
        liouville = KForm.zero(1)
        for p, q in darboux_chart(model):
            liouville += exterior_derivative(KForm.scalar(q)).scaled(p)
        return ConnectionPotential(liouville.scaled(scale.factor()), scale)

    def curvature_target(self, model: SpacetimeModel) -> KForm:
        return model.symplectic_form.scaled(self.scale.factor())

    def curvature_residual(self, model: SpacetimeModel) -> KForm:
        return exterior_derivative(self.theta) - self.curvature_target(model)

    def gauge_shifted(self, chi: Expression) -> "ConnectionPotential":
        """theta -> theta + d(chi); the curvature is unchanged."""
        return ConnectionPotential(
            self.theta + exterior_derivative(KForm.scalar(chi)), self.scale
        )


class Section(namedtuple("Section", ("re", "im"))):
    """A complex-valued field on the cut chart, stored as Expressions (re, im).

    Sections are local objects: they are only required to be evaluable on
    the chart, not to extend continuously across the azimuth cut or the
    poles.
    """

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return Section(ex.add(self.re, other.re), ex.add(self.im, other.im))

    def __sub__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return Section(
            ex.add(self.re, ex.mul(ex.NEG_ONE, other.re)),
            ex.add(self.im, ex.mul(ex.NEG_ONE, other.im)),
        )

    def scaled_real(self, factor) -> "Section":
        """Multiply by a real scalar field (or number)."""
        return Section(ex.mul(factor, self.re), ex.mul(factor, self.im))

    def times_i_scaled(self, factor) -> "Section":
        """Multiply by i times a real scalar field."""
        return Section(ex.mul(ex.NEG_ONE, factor, self.im), ex.mul(factor, self.re))

    def evaluate_at(self, point) -> complex:
        (re,), (im,) = ex.evaluate_many([self.re, self.im], point)
        return complex(re, im)

    def magnitude_at(self, point) -> float:
        return abs(self.evaluate_at(point))


ZERO_SECTION = Section(ex.ZERO, ex.ZERO)


def _scan(parts, family, points) -> list:
    """Magnitudes of the sections ``parts(psi)`` builds for every member
    psi of a section family: one list per part, over (member, point) pairs
    member by member.

    The operators are linear differential operators in psi, so ``parts``
    builds its trees once, over the family's symbolic member, whose drawn
    numbers are parameters.  The trees are then evaluated once over the
    flat batch of (member, point) pairs: each parameter holds its member's
    draw at each point, and the point coordinates stand for themselves
    repeated for each member, so that the nodes that read no parameter are
    computed once per point.
    """
    row = [ex.Parameter(f"p{i}") for i in range(len(family.draws[0]))]
    roots = [x for built in parts(family.build(row)) for x in (built.re, built.im)]
    inputs = ex.chart_inputs(points)
    for i, p in enumerate(row):
        inputs[p] = [draw[i] for draw in family.draws for _ in range(len(points))]
    values = ex.evaluate_many(roots, inputs)
    return [list(map(math.hypot, re, im)) for re, im in zip(values[0::2], values[1::2])]


def covariant_derivative(
    x: VectorField, psi: Section, potential: ConnectionPotential, paired: Expression | None = None
) -> Section:
    """nabla_X psi = X(psi) - i theta(X) psi, componentwise on (re, im);
    ``paired`` is theta(X) where the caller has built it already."""
    if paired is None:
        paired = pairing(potential.theta, x)
    return Section(
        ex.add(x.apply(psi.re), ex.mul(paired, psi.im)),
        ex.add(x.apply(psi.im), ex.mul(ex.NEG_ONE, paired, psi.re)),
    )


class PrequantumOperator(
    namedtuple("PrequantumOperator", "source field paired potential hbar hermitian", defaults=(True,))
):
    """The operator assigned to a smooth function.

    ``source`` is the function f and ``field`` its Hamiltonian field H_f.
    ``hermitian=True`` gives  i hbar nabla_{H_f} - f, the assignment under
    which brackets become commutators; ``hermitian=False`` drops the
    imaginary unit (hbar nabla_{H_f} - f), breaking that correspondence, and
    exists so the reports can show the breakage explicitly.  ``paired`` is
    theta(H_f); ``hbar`` is the ``potential``'s, at the model's mass.
    """

    __slots__ = ()

    def derivative_part(self, psi: Section, gradient: Section | None = None) -> Section:
        """The (i) hbar nabla_{H_f} piece of the operator alone; ``gradient``
        is nabla_{H_f} psi where the caller has built it already."""
        if gradient is None:
            gradient = covariant_derivative(self.field, psi, self.potential, self.paired)
        if self.hermitian:
            return gradient.times_i_scaled(ex.const(self.hbar))
        return gradient.scaled_real(ex.const(self.hbar))

    def apply(self, psi: Section, gradient: Section | None = None) -> Section:
        return self.derivative_part(psi, gradient) - psi.scaled_real(self.source)


def prequantum_operator(
    f: Expression, model: SpacetimeModel, potential: ConnectionPotential
) -> PrequantumOperator:
    """The hermitian operator of ``f``; ``_replace(hermitian=False)`` is the other."""
    hbar = potential.scale.ratio * model.mass
    field = hamiltonian_field(f, model)
    return PrequantumOperator(f, field, pairing(potential.theta, field), potential, hbar)


def apply_operator(
    f: Expression, psi: Section, model: SpacetimeModel, potential: ConnectionPotential
) -> Section:
    return prequantum_operator(f, model, potential).apply(psi)


# ---------------------------------------------------------------------------
# Section library for sampled operator checks
# ---------------------------------------------------------------------------


class SectionFamily(Immutable):
    """Test sections of one shape that differ only in drawn numbers.

    ``draws`` holds one tuple of floats per member; ``build(row)`` makes the
    section whose numbers are the expressions of ``row``, so member k over
    constants is ``build([ex.const(x) for x in draws[k]])``.  Families are
    immutable and compare by identity.
    """

    __slots__ = ("build", "draws")

    def __init__(self, build: Callable, draws):
        draws = tuple(tuple(map(float, draw)) for draw in draws)
        object.__setattr__(self, "build", build)
        object.__setattr__(self, "draws", draws)

def random_sections(mass: float, count: int, seed: int) -> SectionFamily:
    """Deterministic polynomial-times-phase test sections.

    Low-degree polynomials in rescaled coordinates multiplied by a phase
    exp(i (j v + kappa t)) with integer azimuthal winding; magnitudes stay
    of order one on the operator sampling window so stacked operator
    applications do not amplify roundoff.  Each member takes eight unit
    draws: six coefficients in [-1, 1), the winding j in -2..2 and kappa.
    """
    units = unit_draws(seed, 8 * count)
    draws = []
    for k in range(0, len(units), 8):
        *coefficients, winding, kappa = units[k : k + 8]
        coefficients = [-1.0 + 2.0 * x for x in coefficients]
        draws.append((*coefficients, -2 + math.floor(5.0 * winding), (-0.3 + 0.6 * kappa) / mass))
    scale_r = ex.quotient(ex.R, ex.const(5.0 * mass))
    scale_t = ex.quotient(ex.T, ex.const(5.0 * mass))
    scale_u = ex.quotient(ex.U, ex.const(math.pi))
    scale_v = ex.quotient(ex.V, ex.const(2.0 * math.pi))
    monomials = (ex.ONE, scale_u, scale_v, scale_r, scale_t, ex.power(scale_r, 2))

    def build(row) -> Section:
        poly = ex.add(*(ex.mul(c, x) for c, x in zip(row, monomials)))
        phase = ex.add(ex.mul(row[6], ex.V), ex.mul(row[7], ex.T))
        return Section(ex.mul(poly, ex.cos(phase)), ex.mul(poly, ex.sin(phase)))

    return SectionFamily(build, draws)


# ---------------------------------------------------------------------------
# Checks and reports.  Each result is judged by its catalogue row; a
# threshold left at None is each check's own tolerance.
# ---------------------------------------------------------------------------


def verify_curvature_potential(model, potential, points, threshold=None, seed=None) -> CheckResult:
    """Check d(theta) equals the scaled symplectic form at sampled points."""
    (check,) = GROUP_ROWS["curvature_potential"]
    residual = potential.curvature_residual(model)
    worst, at = worst_point(residual.max_abs(points), points)
    details = {"scale_mode": potential.scale.value}
    return check.judged(worst, at, seed, threshold, details=details)


def curvature_section_check(
    model, potential, sections, points, threshold=None, seed=None
) -> CheckResult:
    """Check ([nabla_a, nabla_b] + (i/hbar) sympl(a,b)) psi = 0 on sections.

    Coordinate fields commute, so the bracket term of the curvature drops
    out and the identity is a direct statement about second covariant
    derivatives.
    """
    fields = [basis_vector(a) for a in range(4)]
    hbar = potential.scale.hbar()

    def parts(psi):
        first = [covariant_derivative(x, psi, potential) for x in fields]
        residuals = []
        for a, b in itertools.combinations(range(4), 2):
            factor = ex.quotient(model.symplectic_form.coefficient((a, b)), hbar)
            commutator = covariant_derivative(
                fields[a], first[b], potential
            ) - covariant_derivative(fields[b], first[a], potential)
            residuals.append(commutator + psi.times_i_scaled(factor))
        return residuals

    (check,) = GROUP_ROWS["curvature_sections"]
    magnitudes = itertools.chain.from_iterable(_scan(parts, sections, points))
    worst, at = worst_point(list(magnitudes), points)
    return check.judged(worst, at, seed, threshold)


def commutator_suite(
    model,
    potential,
    sections,
    points,
    relative_threshold=None,
    absolute_threshold=None,
    seed=None,
    only=None,
) -> list:
    """Check bracket(f,h)-hat = -(i/hbar) [f-hat, h-hat] for the six
    coordinate pairs, in a fixed order; ``only`` names the checks to compute
    (None for all six), and the operators of the other pairs are not built.

    Pairs whose bracket folds to zero are measured absolutely, the others
    relative to the largest left-hand magnitude over the sample.  For the
    latter, the residual of the nonhermitian operator variant, which does
    not satisfy the relation, is recorded in the details and never
    asserted.  These pairs are also compared with their closed forms, i hbar
    times the hat of the bracket's closed form read off the Darboux chart.
    """
    wanted = selector(only)
    coordinates = dict(zip(ex.COORDINATE_NAMES, ex.COORDINATES))
    checks = {
        pair: check
        for pair, check in zip(itertools.combinations(coordinates, 2), GROUP_ROWS["commutators"])
        if wanted(check)
    }
    pairs = list(checks)
    brackets = {(a, b): poisson_bracket(coordinates[a], coordinates[b], model) for a, b in pairs}
    references = coordinate_bracket_references(model)
    displays = {
        pair: prequantum_operator(references[pair], model, potential)
        for pair in pairs
        if not ex.is_zero(references[pair])
    }
    # the coordinates the selected pairs hold, in order
    used = {name: coordinates[name] for name in coordinates if any(name in pair for pair in pairs)}
    # per variant, sharing each field: the operators of those coordinates (by
    # name) and of their brackets (by pair), nonhermitian for nonzero brackets
    operators = {
        key: prequantum_operator(g, model, potential) for key, g in {**used, **brackets}.items()
    }
    nonhermitian = {
        key: operators[key]._replace(hermitian=False)
        for pair in pairs if not ex.is_zero(brackets[pair]) for key in (*pair, pair)
    }
    variants = {True: operators, False: nonhermitian}
    # pair by pair, both variants together: the evaluator computes the nodes
    # the variants share once, and can free them soon after
    runs = [
        (pair, hermitian) for pair in pairs for hermitian, ops in variants.items() if pair in ops
    ]
    hbar = potential.scale.ratio * model.mass
    relation = ex.const(-1.0 / hbar)
    display_factor = ex.const(hbar)

    def parts(psi):
        # nabla_{H_g} psi once per operator, for both variants
        gradients = {
            key: covariant_derivative(op.field, psi, potential, op.paired)
            for key, op in operators.items()
        }
        applied = {
            hermitian: {name: ops[name].apply(psi, gradients[name]) for name in used if name in ops}
            for hermitian, ops in variants.items()
        }
        built = []
        for (a, b), hermitian in runs:
            ops, first = variants[hermitian], applied[hermitian]
            lhs = ops[a, b].apply(psi, gradients[a, b])
            commutator = ops[a].apply(first[b]) - ops[b].apply(first[a])
            rhs = commutator.times_i_scaled(relation)
            built += [lhs - rhs, lhs, rhs]
            if hermitian and (a, b) in displays:
                display = displays[a, b].apply(psi).times_i_scaled(display_factor)
                built += [commutator - display, display]
        return built

    # the parts in the order they were built, one (member, point) list each
    magnitudes = iter(_scan(parts, sections, points))
    measured, display_residuals = {}, {}
    for pair, hermitian in runs:
        residual, lhs, rhs = itertools.islice(magnitudes, 3)
        worst, at = worst_point(residual, points)
        scale = peak(lhs + rhs)
        if not ex.is_zero(brackets[pair]):
            worst /= max(scale, 1e-300)
        measured[hermitian, pair] = (worst, at, scale)
        if hermitian and pair in displays:
            display_residual, display = itertools.islice(magnitudes, 2)
            display_residuals[pair] = peak(display_residual) / max(peak(display), 1e-300)

    results = []
    for pair in pairs:
        error, at, scale = measured[True, pair]
        zero = ex.is_zero(brackets[pair])
        details = {"mode": "absolute" if zero else "relative", "scale": scale}
        if (False, pair) in measured:
            details["nonhermitian_residual"] = measured[False, pair][0]
        if pair in display_residuals:
            details["display_residual"] = display_residuals[pair]
        threshold = absolute_threshold if zero else relative_threshold
        results.append(checks[pair].judged(error, at, seed, threshold, details=details))
    return results


def geometric_operator_report(
    model, potential, sections, points, chain_threshold=None, seed=None, only=None
) -> list:
    """Operator identities for the radius, sphere-area and ball-volume functions.

    The chain rule  (g(r))-hat = g'(r) D_r - g(r)  with D_r the derivative
    part of the radius operator follows from the defining relation of
    Hamiltonian fields and must hold; it is asserted.  The alternative
    relations

        (4 pi r^2)-hat   = 4 pi r      r-hat +   D_r
        (4 pi r^3/3)-hat = (4 pi/3) r^2 r-hat + 2 D_r

    do not follow from it (they differ by derivative terms); their
    residuals are emitted for inspection and never asserted.  ``only``
    names the checks to compute (None for all three).
    """
    wanted = selector(only)
    chain_check, area_check, volume_check = GROUP_ROWS["operators"]
    chain = wanted(chain_check)
    r_squared = ex.power(ex.R, 2)
    functions = (
        ex.R,
        ex.mul(ex.const(FOUR_PI), r_squared),
        ex.mul(ex.const(FOUR_PI / 3.0), ex.power(ex.R, 3)),
    )
    slopes = (ex.ONE, ex.mul(ex.const(2.0 * FOUR_PI), ex.R), ex.mul(ex.const(FOUR_PI), r_squared))
    ops = [prequantum_operator(g, model, potential) for g in functions]
    # check, index of the function, prefactor of r-hat, multiplier of D_r
    printed = (
        (area_check, 1, ex.mul(ex.const(FOUR_PI), ex.R), 1.0),
        (volume_check, 2, ex.mul(ex.const(FOUR_PI / 3.0), r_squared), 2.0),
    )
    printed = [row for row in printed if wanted(row[0])]

    def parts(psi):
        derivative = ops[0].derivative_part(psi)
        applied = [op.apply(psi) for op in ops]
        built = []
        if chain:
            for g, slope, lhs in zip(functions, slopes, applied):
                rhs = derivative.scaled_real(slope) - psi.scaled_real(g)
                built += [lhs - rhs, lhs]
        for _, k, prefactor, multiplier in printed:
            rhs = applied[0].scaled_real(prefactor) + derivative.scaled_real(
                ex.const(multiplier)
            )
            built += [applied[k] - rhs, applied[k]]
        return built

    magnitudes = _scan(parts, sections, points)
    reports = []
    if chain:
        # chain-rule parts: residual and left side of each function in turn
        worst, at = worst_point(list(itertools.chain.from_iterable(magnitudes[0:6:2])), points)
        scale = peak(itertools.chain.from_iterable(magnitudes[1:6:2]))
        relative, details = worst / max(scale, 1e-300), {"scale": scale}
        reports.append(chain_check.judged(relative, at, seed, chain_threshold, details=details))
        magnitudes = magnitudes[6:]
    # report-only: the chain threshold is shown beside them, as a yardstick
    for (check, *_), residual, lhs in zip(printed, magnitudes[0::2], magnitudes[1::2]):
        worst, scale = peak(residual), peak(lhs)
        reports.append(
            check.judged(
                worst / max(scale, 1e-300),
                worst_point(residual, points)[1],
                seed,
                chain_threshold,
                details={"expected_nonzero": True, "scale": scale},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Radial eigen-equation residuals
# ---------------------------------------------------------------------------


class Box(namedtuple("Box", ("u", "v", "r", "t"))):
    """A coordinate box inside the chart, for bounded L2 norms: (low, high) per axis."""

    __slots__ = ()

    @staticmethod
    def default(mass: float) -> "Box":
        return Box(u=(0.6, 2.5), v=(0.5, 5.5), r=(2.5 * mass, 8.0 * mass), t=(-mass, mass))


def box_l2_norm(section: Section, model, box: Box) -> float:
    """L2 norm of a section over the box with the sympl^2/2 volume, by a
    6-node Gauss-Legendre rule on each axis."""
    density = wedge(model.symplectic_form, model.symplectic_form).coefficient((0, 1, 2, 3))
    rules = []
    nodes, weights = gauss_legendre(6)
    for low, high in box:
        if not low < high:
            raise ValueError("box intervals must be increasing")
        half = 0.5 * (high - low)
        rules.append([(half * (x + 1.0) + low, half * w) for x, w in zip(nodes, weights)])
    # every node of the box, (u, v, r, t) order, t fastest
    grid = list(itertools.product(*rules))
    inputs = {name: [node[k][0] for node in grid] for k, name in enumerate(ex.COORDINATE_NAMES)}
    inputs["m"] = model.mass
    volume, re, im = ex.evaluate_many([density, section.re, section.im], inputs)
    terms = []
    for ((_, wu), (_, wv), (_, wr), (_, wt)), dv, a, b in zip(grid, volume, re, im):
        magnitude = math.hypot(a, b)
        terms.append(wu * wv * wr * wt * 0.5 * dv * (magnitude * magnitude))
    return math.sqrt(max(math.fsum(terms), 0.0))


def radial_eigen_residual(psi: Section, eigenvalue: float, model, potential, box: Box):
    """Residual section (r-hat - eigenvalue) psi and its L2 norm over the box."""
    residual = apply_operator(ex.R, psi, model, potential) - psi.scaled_real(ex.const(eigenvalue))
    return residual, box_l2_norm(residual, model, box)


def separable_radial_residual(kappa: float, chi: Expression, eigenvalue: float, model, potential):
    """Algebraic residual factor for the ansatz psi = exp(i kappa t) chi(r).

    The hermitian radius operator acts on the ansatz by multiplication, so
    the residual is factor * psi with factor returned as an (re, im)
    expression pair,

        (-hbar h kappa + hbar theta(H_r) - r - eigenvalue,  0)

    where h is the single component of H_r.
    """
    for name in ("u", "v", "t"):
        if not ex.is_zero(chi.diff(name)):
            raise ValueError("the radial profile chi must depend on r only")
    radial = hamiltonian_field(ex.R, model)
    h = radial.components[3]
    paired = pairing(potential.theta, radial)
    hbar = potential.scale.hbar()
    re = ex.add(
        ex.mul(ex.const(-kappa), hbar, h),
        ex.mul(hbar, paired),
        ex.mul(ex.NEG_ONE, ex.R),
        ex.const(-eigenvalue),
    )
    return re, ex.ZERO


def phase_section(kappa: float, chi: Expression = ex.ONE) -> Section:
    """The separable section exp(i kappa t) chi(r)."""
    phase = ex.mul(ex.const(kappa), ex.T)
    return Section(ex.mul(chi, ex.cos(phase)), ex.mul(chi, ex.sin(phase)))


# ---------------------------------------------------------------------------
# Integrality
# ---------------------------------------------------------------------------


def integrality_report(model, spec: QuadratureSpec, seed=None) -> CheckResult:
    """Sphere classes of the symplectic form under the candidate curvature
    normalisations, with integrality flags.

    The class of sympl itself equals the mass; dividing by the mass always
    gives 1 (integral, but mass-specific); dividing additionally by 2 pi,
    as the classical integrality condition for line bundles would, gives
    1/(2 pi), which is never an integer.  Choosing sympl as the curvature
    instead demands the mass itself be an integer multiple of a fundamental
    unit.  All three numbers are reported; nothing here is asserted.
    """
    integral = surface_integral(model.symplectic_form, spec, model).value
    unit_scaled = integral / model.mass
    weil_scaled = integral / (2.0 * math.pi * model.mass)

    def is_integer(value):
        return bool(abs(value - round(value)) < 1e-8)

    details = {
        "surface_class": integral,
        "options": {
            "curvature_sympl_over_m": {
                "class": unit_scaled,
                "integer": is_integer(unit_scaled),
            },
            "curvature_sympl": {
                "class": integral,
                "integer": is_integer(integral),
                "mass_quantized": is_integer(integral),
            },
        },
        "weil_normalized_class": {
            "class": weil_scaled,
            "integer": is_integer(weil_scaled),
        },
    }
    (check,) = GROUP_ROWS["integrality"]
    return check.judged(abs(integral - model.mass), None, seed, details=details)
