"""Hamiltonian vector fields, Poisson brackets, and sphere quadrature.

The Hamiltonian field of a function f is the unique solution of
i_H sympl = -df.  Two independent routes compute it:

* a symbolic solve that inverts the block structure of the symplectic form
  (a du^dv block and a dr^dt block), giving closed-form components for any
  smooth f, and
* a numeric pointwise LU solve of the 4x4 matrix of the symplectic form,
  used by the verification suite to cross-check the symbolic route against
  the displayed closed forms.

Sphere integrals of 2-forms use tensor-product Gauss-Legendre nodes in the
colatitude and a midpoint rule on the periodic azimuth (spectrally accurate
there), with an error estimate from node doubling.  The Gauss-Legendre rule
is computed here by Newton iteration on P_n, in O(n^2) work and without
LAPACK.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import expressions as ex
from .expressions import ChartPoint, Expression, Rational
from .exterior import DIM, KForm, VectorField
from .reports import CheckResult, worst_point
from .spacetime import FOUR_PI, SpacetimeModel, schwarzschild_factor


class SingularSymplecticError(ValueError):
    """The symplectic matrix degenerated at a sample point."""


class BlockStructureError(ValueError):
    """The symplectic form lacks the du^dv + dr^dt block layout."""


def symplectic_matrix(model: SpacetimeModel):
    """Matrix P[i][j] = sympl(e_i, e_j) of coefficient expressions."""
    matrix = [[ex.ZERO for _ in range(DIM)] for _ in range(DIM)]
    for (i, j), coefficient in model.symplectic_form.terms:
        matrix[i][j] = coefficient
        matrix[j][i] = ex.mul(ex.NEG_ONE, coefficient)
    return matrix


def _block_coefficients(model: SpacetimeModel):
    allowed = {(0, 1), (2, 3)}
    indices = {index for index, _ in model.symplectic_form.terms}
    if not indices <= allowed:
        raise BlockStructureError(
            f"symplectic form has terms {sorted(indices - allowed)} outside the "
            "angular and radial-time blocks"
        )
    angular = model.symplectic_form.coefficient((0, 1))
    radial = model.symplectic_form.coefficient((2, 3))
    if ex.is_zero(angular) or ex.is_zero(radial):
        raise BlockStructureError("a symplectic block vanishes identically")
    return angular, radial


def hamiltonian_field(f: Expression, model: SpacetimeModel) -> VectorField:
    """Solve i_H sympl = -df symbolically through the block structure.

    With sympl = a du^dv + b dr^dt the unique solution is
    H = (-f_v/a) d_u + (f_u/a) d_v + (-f_t/b) d_r + (f_r/b) d_t.
    """
    angular, radial = _block_coefficients(model)
    components = (
        ex.quotient(ex.mul(ex.NEG_ONE, f.diff("v")), angular),
        ex.quotient(f.diff("u"), angular),
        ex.quotient(ex.mul(ex.NEG_ONE, f.diff("t")), radial),
        ex.quotient(f.diff("r"), radial),
    )
    return VectorField(components)


def hamiltonian_values(f: Expression, model: SpacetimeModel, points) -> np.ndarray:
    """Numeric route over a batch of points: LU-solve the 4x4 system at each
    one, giving an array of shape (points, 4)."""
    matrix = symplectic_matrix(model)
    # rows of the transposed matrix: components satisfy sum_i H^i P[i][j] = -df_j
    entries = [matrix[j][i] for i in range(DIM) for j in range(DIM)]
    gradient = [f.diff(name) for name in ex.COORDINATE_NAMES]
    values = np.stack(ex.evaluate_many(entries + gradient, points), axis=-1)
    system = values[:, : DIM * DIM].reshape(-1, DIM, DIM)
    try:
        return np.linalg.solve(system, -values[:, DIM * DIM :, None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise SingularSymplecticError("symplectic matrix singular at a sample point") from err


def hamiltonian_at(f: Expression, model: SpacetimeModel, point: ChartPoint) -> np.ndarray:
    """Numeric route: LU-solve the 4x4 system at one point."""
    try:
        return hamiltonian_values(f, model, [point])[0]
    except SingularSymplecticError as err:
        raise SingularSymplecticError(f"symplectic matrix singular at {point}") from err


def poisson_bracket(f: Expression, h: Expression, model: SpacetimeModel) -> Expression:
    """The bracket sympl(H_f, H_h) as an expression, evaluable anywhere."""
    field_f = hamiltonian_field(f, model)
    field_h = hamiltonian_field(h, model)
    pieces = []
    for (i, j), coefficient in model.symplectic_form.terms:
        pieces.append(
            ex.mul(
                coefficient,
                ex.add(
                    ex.mul(field_f.components[i], field_h.components[j]),
                    ex.mul(ex.NEG_ONE, field_f.components[j], field_h.components[i]),
                ),
            )
        )
    return ex.add(*pieces)


def coordinate_field_references(model: SpacetimeModel) -> dict:
    """Displayed closed forms of the four coordinate Hamiltonian fields."""
    factor = schwarzschild_factor()
    angular = ex.quotient(ex.const(FOUR_PI), ex.mul(ex.M, ex.sin(ex.U)))
    radial = ex.mul(
        ex.quotient(ex.mul(ex.const(FOUR_PI), ex.power(ex.R, 2)), ex.M),
        ex.power(factor, Rational(1, 2)),
    )
    return {
        "u": VectorField((ex.ZERO, angular, ex.ZERO, ex.ZERO)),
        "v": VectorField((ex.mul(ex.NEG_ONE, angular), ex.ZERO, ex.ZERO, ex.ZERO)),
        "r": VectorField((ex.ZERO, ex.ZERO, ex.ZERO, radial)),
        "t": VectorField((ex.ZERO, ex.ZERO, ex.mul(ex.NEG_ONE, radial), ex.ZERO)),
    }


def coordinate_bracket_references(model: SpacetimeModel) -> dict:
    """Displayed closed forms of the coordinate Poisson brackets, read off
    the field references: {a, b} = sympl(H_a, H_b) = -da(H_b) = -(H_b)^a."""
    fields = coordinate_field_references(model)
    names = ex.COORDINATE_NAMES
    return {
        (a, b): ex.mul(ex.NEG_ONE, fields[b].components[i])
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }


def coordinate_commutator_displays(model: SpacetimeModel) -> dict:
    """Closed forms whose hats the two nonzero commutators must reproduce:
    [u-hat, v-hat] = 4 pi i (1/sin u)-hat and
    [r-hat, t-hat] = 4 pi i (r^2 lapse)-hat."""
    return {
        ("u", "v"): ex.power(ex.sin(ex.U), -1),
        ("r", "t"): ex.mul(ex.power(ex.R, 2), ex.power(schwarzschild_factor(), Rational(1, 2))),
    }


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------


def verify_hamiltonian_fields(model, points, threshold=1e-10, seed=None) -> list:
    """Numeric LU solve against the displayed closed forms, relative error."""
    references = coordinate_field_references(model)
    results = []
    for name in ex.COORDINATE_NAMES:
        numeric = hamiltonian_values(ex.Coordinate(name), model, points)
        expected = np.stack(ex.evaluate_many(references[name].components, points), axis=-1)
        scale = np.maximum(np.max(np.abs(expected), axis=-1), 1e-300)
        errors = np.max(np.abs(numeric - expected), axis=-1) / scale
        worst, at = worst_point(errors, points)
        results.append(CheckResult.judged(f"hamiltonian_{name}", threshold, worst, at, seed))
    return results


def bracket_table(
    model,
    points,
    relative_threshold=1e-10,
    zero_threshold=1e-10,
    jacobi_threshold=1e-9,
    seed=None,
    jacobi_points=None,
):
    """The antisymmetric 4x4 table of coordinate brackets with its checks.

    Returns (checks, table) where table maps "f,h" to the bracket expression
    in prefix form, and checks compare the two nonzero entries relatively,
    the four cross entries absolutely, antisymmetry, and the Jacobi residual
    for all coordinate triples.  The Jacobi residual stacks two symbolic
    derivative layers, whose roundoff is amplified near the poles, so it may
    be sampled on its own (typically pole-avoiding) point set.
    """
    if jacobi_points is None:
        jacobi_points = points
    names = ex.COORDINATE_NAMES
    coordinates = {name: ex.Coordinate(name) for name in names}
    references = coordinate_bracket_references(model)
    pairs = [(a, b) for a in names for b in names]
    brackets = {(a, b): poisson_bracket(coordinates[a], coordinates[b], model) for a, b in pairs}
    table = {f"{a},{b}": brackets[(a, b)].to_prefix() for a, b in pairs}
    nonzero = (("u", "v"), ("r", "t"))
    computed = ex.evaluate_many(
        [brackets[pair] for pair in pairs] + [references[pair] for pair in nonzero], points
    )
    values = dict(zip(pairs, computed))

    checks = []
    for pair, expected in zip(nonzero, computed[len(pairs) :]):
        errors = np.abs(values[pair] - expected) / np.maximum(np.abs(expected), 1e-300)
        worst, at = worst_point(errors, points)
        checks.append(
            CheckResult.judged(f"bracket_{pair[0]}{pair[1]}", relative_threshold, worst, at, seed)
        )

    cross = np.abs([values[pair] for pair in (("u", "r"), ("u", "t"), ("v", "r"), ("v", "t"))])
    worst, at = worst_point(cross, points)
    checks.append(CheckResult.judged("bracket_cross_zeros", zero_threshold, worst, at, seed))

    # scanned point by point, each point over all pairs
    anti = np.abs(np.stack([values[(a, b)] + values[(b, a)] for a, b in pairs], axis=-1))
    worst, at = worst_point(anti, points, axis=0)
    checks.append(CheckResult.judged("bracket_antisymmetry", zero_threshold, worst, at, seed))

    cyclic = []
    for triple in (("u", "v", "r"), ("u", "v", "t"), ("u", "r", "t"), ("v", "r", "t")):
        f, g, h = (coordinates[n] for n in triple)
        cyclic.append(
            ex.add(
                poisson_bracket(f, poisson_bracket(g, h, model), model),
                poisson_bracket(g, poisson_bracket(h, f, model), model),
                poisson_bracket(h, poisson_bracket(f, g, model), model),
            )
        )
    worst, at = worst_point(np.abs(ex.evaluate_many(cyclic, jacobi_points)), jacobi_points)
    checks.append(CheckResult.judged("jacobi_identity", jacobi_threshold, worst, at, seed))
    return checks, table


# ---------------------------------------------------------------------------
# Sphere quadrature
# ---------------------------------------------------------------------------


class QuadratureSpec:
    """Node counts and sphere location for surface integrals.

    ``n_u`` Gauss-Legendre nodes on the colatitude interval (0, pi) and
    ``n_v`` midpoint nodes on the periodic azimuth; the sphere sits at
    radius r0 and time slice t0.  Specs are immutable.
    """

    __slots__ = ("n_u", "n_v", "r0", "t0")

    def __init__(self, n_u: int = 32, n_v: int = 64, r0: float = 3.0, t0: float = 0.0):
        if n_u < 2:
            raise ValueError("need at least 2 colatitude nodes")
        if n_v < 4:
            raise ValueError("need at least 4 azimuth nodes")
        if not math.isfinite(r0) or r0 <= 0:
            raise ValueError("sphere radius must be positive and finite")
        for name, value in zip(self.__slots__, (n_u, n_v, r0, t0)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a QuadratureSpec is immutable")


# Newton steps allowed per rule: from Tricomi's guesses every n up to 2048
# reaches roundoff within 4.  A step under 2 ulp of 1 is roundoff.
_NEWTON_STEPS = 10
_ROUNDOFF_STEP = 2.0 * np.finfo(float).eps


def _legendre_with_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    previous, current, scratch = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, current, out=scratch)
        scratch *= (2 * k + 1) / (k + 1)
        previous *= k / (k + 1)
        scratch -= previous
        previous, current, scratch = current, scratch, previous
    return current, n * (previous - x * current) / (1.0 - x * x)


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], as read-only arrays cached per n.

    Newton iteration on P_n runs over the positive nodes at once, started
    from Tricomi's guesses (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1)/(4n + 2)),
    and stops once no node moves by more than 2 ulp of 1; the weights are
    2/((1 - x^2) P_n'(x)^2).  The negative half mirrors the positive one, so
    the nodes are exactly antisymmetric and the weights exactly symmetric,
    and an odd rule has the node 0.  O(n^2) work, against the O(n^3)
    eigensolve of the Golub-Welsch method; Hale & Townsend (SIAM J. Sci.
    Comput. 35, A652, 2013) survey the approach.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs at least 1 node, got {n}")
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(_NEWTON_STEPS):
        value, derivative = _legendre_with_derivative(n, x)
        step = value / derivative
        x = x - step
        if not np.any(np.abs(step) > _ROUNDOFF_STEP):
            break
    weights = 2.0 / ((1.0 - x * x) * derivative * derivative)
    middle_x, middle_w = np.empty(0), np.empty(0)
    if n % 2:
        _, slope = _legendre_with_derivative(n, np.zeros(1))
        middle_x, middle_w = np.zeros(1), 2.0 / (slope * slope)
    nodes = np.concatenate([-x, middle_x, x[::-1]])
    weights = np.concatenate([weights, middle_w, weights[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class IntegralResult(NamedTuple):
    value: float
    error_estimate: float
    n_u: int
    n_v: int


def sphere_sum(form: KForm, model: SpacetimeModel, n_u: int, n_v: int, r0: float, t0: float) -> float:
    """One quadrature pass over the sphere {r=r0, t=t0} at the given node counts.

    Sums each row of the evaluated du^dv coefficient along v, then the row
    sums against the colatitude weights, then scales by the azimuth weight,
    without a BLAS call.  A v-independent coefficient evaluates to a stride-0
    view of one column, so the pass then builds no n_u x n_v array.
    """
    coefficient = form.coefficient((0, 1))
    if ex.is_zero(coefficient):
        return 0.0
    nodes, weights = gauss_legendre(n_u)
    colatitudes = 0.5 * math.pi * (nodes + 1.0)
    u_weights = 0.5 * math.pi * weights
    azimuths = (np.arange(n_v) + 0.5) * (2.0 * math.pi / n_v)
    v_weight = 2.0 * math.pi / n_v
    grid = {"u": colatitudes[:, None], "v": azimuths[None, :], "r": r0, "t": t0, "m": model.mass}
    (values,) = ex.evaluate_many([coefficient], grid)
    total = float(np.sum(u_weights * values.sum(axis=1))) * v_weight
    if not math.isfinite(total):
        raise ex.EvaluationError(
            f"sphere integral is not finite at r0={r0:.3g}, mass {model.mass:.3g}"
        )
    return total


def surface_integral(form: KForm, spec: QuadratureSpec, model: SpacetimeModel) -> IntegralResult:
    """Integrate a 2-form over the sphere {r = r0, t = t0}.

    The pullback keeps only the du^dv coefficient (dr and dt vanish on the
    sphere).  The returned value uses doubled node counts; the error
    estimate is the difference against the requested counts.
    """
    if form.degree != 2:
        raise ValueError("surface integrals take 2-forms")
    if spec.r0 < 2.0 * model.mass * (1.0 + ex.HORIZON_MARGIN):
        raise ValueError(
            f"sphere radius {spec.r0} is not outside the horizon of mass {model.mass}"
        )
    coarse = sphere_sum(form, model, spec.n_u, spec.n_v, spec.r0, spec.t0)
    fine = sphere_sum(form, model, 2 * spec.n_u, 2 * spec.n_v, spec.r0, spec.t0)
    return IntegralResult(value=fine, error_estimate=abs(fine - coarse), n_u=spec.n_u, n_v=spec.n_v)
