"""Hamiltonian vector fields, Poisson brackets, and sphere quadrature.

The Hamiltonian field of a function f is the unique solution of
i_H sympl = -df.  Two independent routes compute it:

* a symbolic solve that inverts the block structure of the symplectic form
  (a du^dv block and a dr^dt block), giving closed-form components for any
  smooth f, and
* a numeric pointwise solve of the 4x4 antisymmetric matrix of the
  symplectic form by its Pfaffian, used by the verification suite to
  cross-check the symbolic route against the closed forms read off the
  model's Darboux chart.

With sympl = dP1^dQ1 + dP2^dQ2, (P1, Q1) functions of (u, v) and (P2, Q2)
of (r, t), the blocks are the Jacobian determinants d(P1, Q1)/d(u, v) and
d(P2, Q2)/d(r, t), so the coordinate fields and brackets follow from the
chart alone.

Sphere integrals of 2-forms use tensor-product Gauss-Legendre nodes in the
colatitude and a midpoint rule on the periodic azimuth (spectrally accurate
there), with an error estimate from node doubling.  The Gauss-Legendre rule
is computed here by one recurrence pass for P_n and Newton on its local
Taylor polynomials, in O(n^2) work and without LAPACK.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from itertools import repeat

from . import expressions as ex
from .expressions import Expression, Immutable
from .exterior import KForm, VectorField
from .reports import GROUP_ROWS, selector, worst_point
from .spacetime import SpacetimeModel, darboux_chart


class SingularSymplecticError(ValueError):
    """The symplectic matrix degenerated at a sample point."""


class BlockStructureError(ValueError):
    """The symplectic form lacks the du^dv + dr^dt block layout."""


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


def _block_field(f: Expression, angular: Expression, radial: Expression) -> VectorField:
    """The solution of i_H sympl = -df for sympl = a du^dv + b dr^dt:
    H = (-f_v/a) d_u + (f_u/a) d_v + (-f_t/b) d_r + (f_r/b) d_t."""
    return VectorField(
        (
            ex.quotient(ex.mul(ex.NEG_ONE, f.diff("v")), angular),
            ex.quotient(f.diff("u"), angular),
            ex.quotient(ex.mul(ex.NEG_ONE, f.diff("t")), radial),
            ex.quotient(f.diff("r"), radial),
        )
    )


def hamiltonian_field(f: Expression, model: SpacetimeModel) -> VectorField:
    """Solve i_H sympl = -df symbolically through the block structure."""
    return _block_field(f, *_block_coefficients(model))


def hamiltonian_values(f: Expression, model: SpacetimeModel, points) -> list:
    """Numeric route over a batch of points: solve the 4x4 system at each
    one, giving one (H^u, H^v, H^r, H^t) tuple per point.

    The components satisfy sum_i H^i P[i][j] = -df_j, that is P H = df for
    the antisymmetric matrix P, so H = P^-1 df with the closed-form inverse
    P^-1 = -P~/Pf(P): P~_ij = (1/2) eps_ijkl P_kl is the dual matrix and
    Pf(P) = P01 P23 - P02 P13 + P03 P12 the Pfaffian.  Raises
    SingularSymplecticError where the Pfaffian is zero.
    """
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    upper = [model.symplectic_form.coefficient(pair) for pair in pairs]
    gradient = [f.diff(name) for name in ex.COORDINATE_NAMES]
    columns = ex.evaluate_many(upper + gradient, points)
    solutions = []
    for p01, p02, p03, p12, p13, p23, f0, f1, f2, f3 in zip(*columns):
        pfaffian = p01 * p23 - p02 * p13 + p03 * p12
        if pfaffian == 0.0:
            raise SingularSymplecticError("symplectic matrix singular at a sample point")
        solutions.append(
            (
                -(p23 * f1 - p13 * f2 + p12 * f3) / pfaffian,
                -(p03 * f2 - p23 * f0 - p02 * f3) / pfaffian,
                -(p13 * f0 - p03 * f1 + p01 * f3) / pfaffian,
                -(p02 * f1 - p12 * f0 - p01 * f2) / pfaffian,
            )
        )
    return solutions


def hamiltonian_at(f: Expression, model: SpacetimeModel, point) -> tuple:
    """Numeric route: solve the 4x4 system at one point, a mapping."""
    try:
        return hamiltonian_values(f, model, point)[0]
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
    """The four coordinate Hamiltonian fields in closed form, from the
    blocks of the model's Darboux chart; a ValueError if it has none."""
    (p1, q1), (p2, q2) = darboux_chart(model)

    def jacobian(p, q, x, y):
        return ex.add(ex.mul(p.diff(x), q.diff(y)), ex.mul(ex.NEG_ONE, p.diff(y), q.diff(x)))

    angular, radial = jacobian(p1, q1, "u", "v"), jacobian(p2, q2, "r", "t")
    return {
        name: _block_field(coordinate, angular, radial)
        for name, coordinate in zip(ex.COORDINATE_NAMES, ex.COORDINATES)
    }


def coordinate_bracket_references(model: SpacetimeModel) -> dict:
    """Closed forms of the coordinate Poisson brackets, read off the field
    references: {a, b} = sympl(H_a, H_b) = db(H_a) = (H_a)^b."""
    fields = coordinate_field_references(model)
    names = ex.COORDINATE_NAMES
    return {
        (a, b): fields[a].components[j]
        for i, a in enumerate(names)
        for j, b in enumerate(names[i + 1 :], start=i + 1)
    }


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------


def verify_hamiltonian_fields(model, points, threshold=None, seed=None, only=None) -> list:
    """Numeric solve against the chart's closed forms, relative error;
    ``only`` names the checks to compute (None for all four), and a
    ``threshold`` left at None is each check's own tolerance."""
    wanted = selector(only)
    references = coordinate_field_references(model)
    results = []
    for name, check in zip(ex.COORDINATE_NAMES, GROUP_ROWS["hamiltonian"]):
        if not wanted(check):
            continue
        numeric = hamiltonian_values(ex.Coordinate(name), model, points)
        expected = zip(*ex.evaluate_many(references[name].components, points))
        errors = [
            max(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2), abs(a3 - b3))
            / max(abs(b0), abs(b1), abs(b2), abs(b3), 1e-300)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(numeric, expected)
        ]
        worst, at = worst_point(errors, points)
        results.append(check.judged(worst, at, seed, threshold))
    return results


def bracket_table(
    model,
    points,
    relative_threshold=None,
    zero_threshold=None,
    jacobi_threshold=None,
    seed=None,
    jacobi_points=None,
    only=None,
):
    """The antisymmetric 4x4 table of coordinate brackets with its checks.

    Returns (checks, table) where table maps "f,h" to the bracket
    expression, and checks compare the two nonzero entries relatively,
    the four cross entries absolutely, antisymmetry, and the Jacobi residual
    for all coordinate triples.  The Jacobi residual stacks two symbolic
    derivative layers, whose roundoff is amplified near the poles, so it may
    be sampled on its own (typically pole-avoiding) point set.

    ``only`` names the checks to compute (None for all five).  The table
    then holds the entries those checks read, all sixteen when antisymmetry
    is among them, and the Jacobi trees are built only for
    ``jacobi_identity``.  A threshold left at None is each check's own
    tolerance; ``zero_threshold`` serves the cross zeros and antisymmetry.
    """
    wanted = selector(only)
    uv, rt, cross_zeros, antisymmetry, jacobi = GROUP_ROWS["bracket"]
    if jacobi_points is None:
        jacobi_points = points
    names = ex.COORDINATE_NAMES
    coordinates = {name: ex.Coordinate(name) for name in names}
    references = coordinate_bracket_references(model)
    pairs = [(a, b) for a in names for b in names]
    nonzero = {pair: check for pair, check in ((("u", "v"), uv), (("r", "t"), rt)) if wanted(check)}
    cross = (("u", "r"), ("u", "t"), ("v", "r"), ("v", "t"))
    read = set(nonzero)
    if wanted(cross_zeros):
        read.update(cross)
    if wanted(antisymmetry):
        read.update(pairs)
    brackets = {
        (a, b): poisson_bracket(coordinates[a], coordinates[b], model)
        for a, b in pairs
        if (a, b) in read
    }
    table = {f"{a},{b}": bracket for (a, b), bracket in brackets.items()}
    computed = []
    if brackets:
        computed = ex.evaluate_many(
            [*brackets.values()] + [references[pair] for pair in nonzero], points
        )
    values = dict(zip(brackets, computed))

    checks = []
    for (pair, check), expected in zip(nonzero.items(), computed[len(brackets) :]):
        errors = [abs(x - y) / max(abs(y), 1e-300) for x, y in zip(values[pair], expected)]
        worst, at = worst_point(errors, points)
        checks.append(check.judged(worst, at, seed, relative_threshold))

    if wanted(cross_zeros):
        worst, at = worst_point([abs(x) for pair in cross for x in values[pair]], points)
        checks.append(cross_zeros.judged(worst, at, seed, zero_threshold))

    if wanted(antisymmetry):
        # the largest |{a,b} + {b,a}| at each point; max keeps -inf against NaN
        sums = ([abs(x + y) for x, y in zip(values[a, b], values[b, a])] for a, b in pairs)
        worst, at = worst_point(list(map(max, repeat(-math.inf), *sums)), points)
        checks.append(antisymmetry.judged(worst, at, seed, zero_threshold))

    if wanted(jacobi):
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
        residuals = [abs(x) for column in ex.evaluate_many(cyclic, jacobi_points) for x in column]
        worst, at = worst_point(residuals, jacobi_points)
        checks.append(jacobi.judged(worst, at, seed, jacobi_threshold))
    return checks, table


# ---------------------------------------------------------------------------
# Sphere quadrature
# ---------------------------------------------------------------------------


class QuadratureSpec(Immutable):
    """Node counts and sphere location for surface integrals.

    ``n_u`` Gauss-Legendre nodes on the colatitude interval (0, pi) and
    ``n_v`` midpoint nodes on the periodic azimuth; the sphere sits at
    radius r0 and time slice t0.  Specs are immutable.
    """

    __slots__ = ("n_u", "n_v", "r0", "t0")

    def __init__(self, n_u: int = 32, n_v: int = 64, r0: float = 3.0, t0: float = 0.0):
        for name, count in (("n_u", n_u), ("n_v", n_v)):
            if not isinstance(count, int):
                raise TypeError(f"{name} must be an integer node count, got {count!r}")
        if n_u < 2:
            raise ValueError("need at least 2 colatitude nodes")
        if n_v < 4:
            raise ValueError("need at least 4 azimuth nodes")
        if not math.isfinite(r0) or r0 <= 0:
            raise ValueError("sphere radius must be positive and finite")
        for name, value in zip(self.__slots__, (n_u, n_v, r0, t0)):
            object.__setattr__(self, name, value)

# Bounds of the refinement.  From Tricomi's guesses every rule of 1 to 400
# nodes, and those sampled up to 2048, certifies each node in one recurrence
# pass, with at most 6 Taylor terms past the first-order one and 3 Newton
# steps on their sum.  A Newton step under 2 ulp of 1 is roundoff, and so is
# a Taylor term under 1/8 ulp of the first-order one.  A node not certified
# gets another pass from its latest estimate; one still left after
# _RECURRENCE_PASSES is an error.
_NEWTON_STEPS = 4
_ROUNDOFF_STEP = 2.0 * sys.float_info.epsilon
_ROUNDOFF_TERM = 0.125 * sys.float_info.epsilon
_TAYLOR_TERMS = 12
_RECURRENCE_PASSES = 3


def _legendre_with_derivative(n: int, nodes: list):
    """P_n(x) and P_n'(x) at each x of ``nodes`` (|x| < 1), by the
    three-term recurrence P_{k+1} = x P_k + k/(k + 1) (x P_k - P_{k-1})."""
    ratios = [k / (k + 1) for k in range(1, n)]
    values, slopes = [], []
    for x in nodes:
        previous, current = 1.0, x
        for ratio in ratios:
            scaled = x * current
            previous, current = current, scaled + ratio * (scaled - previous)
        values.append(current)
        slopes.append(n * (previous - x * current) / ((1.0 - x) * (1.0 + x)))
    return values, slopes


def _taylor_root(x: float, value: float, slope: float, ode: list):
    """The root of P_n near x and P_n' there, from P_n(x) and P_n'(x).

    With h = -P_n(x)/P_n'(x), Newton's first step, the Taylor terms
    t_k = P_n^(k)(x) h^k / k! follow from the Legendre ODE
    (1 - x^2) P^(k+2) = 2(k+1) x P^(k+1) - (n(n+1) - k(k+1)) P^(k) as
    t_{k+2} = (a_k x h t_{k+1} - b_k h^2 t_k) / (1 - x^2), with
    (a_k, b_k) = ``ode[k]``, until two in a row fall below roundoff of t_1.
    Newton on sum_k t_k z^k from z = 1 then gives the root x + z h, and
    the sum's derivative there, over h, gives P_n'.  Where the root is not
    certified (a last step over 2 ulp of 1, or a last kept term above
    roundoff at the root) the slope is None and the root the latest estimate.
    """
    if value == 0.0:
        return x, slope
    h = -value / slope
    s = (1.0 - x) * (1.0 + x)
    first, second = x * h / s, h * h / s
    bound = _ROUNDOFF_TERM * abs(value)
    terms = [value, -value]
    older, old = terms
    small = False
    for a, b in ode:
        older, old = old, a * first * old - b * second * older
        terms.append(old)
        if abs(old) > bound:
            small = False
        elif small:
            break
        else:
            small = True
    else:
        return x + h, None
    terms.reverse()
    z = 1.0
    for _ in range(_NEWTON_STEPS):
        # Horner's scheme for the sum, its derivative and half its second
        total = derivative = curvature = 0.0
        for term in terms:
            curvature = curvature * z + derivative
            derivative = derivative * z + total
            total = total * z + term
        step = total / derivative
        z -= step
        if abs(step * h) <= _ROUNDOFF_STEP:
            break
    else:
        return x + z * h, None
    derivative -= 2.0 * step * curvature  # moved to the root
    last = (len(terms) - 1) * abs(terms[0] * z ** (len(terms) - 2))
    if last > sys.float_info.epsilon * abs(derivative):
        return x + z * h, None
    return x + z * h, derivative / h


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], as tuples cached per n.

    One three-term-recurrence pass evaluates P_n and P_n' at Tricomi's
    guesses (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1)/(4n + 2)) for the
    positive nodes; each node is then refined in O(1) work on the local
    Taylor polynomial of P_n, whose derivatives the Legendre ODE gives
    (``_taylor_root``), and its weight is 2/((1 - x^2) P_n'(x)^2) with the
    polynomial's slope at the root.  A node whose refinement is not
    certified to roundoff gets another pass from its latest estimate, and
    an ArithmeticError is raised if any is left after _RECURRENCE_PASSES.
    The negative half mirrors the positive one, so the nodes are exactly
    antisymmetric and the weights exactly symmetric, and an odd rule has
    the node 0.  O(n^2) work in (n/2)(n - 1) recurrence steps, against the
    O(n^3) eigensolve of the Golub-Welsch method; Hale & Townsend (SIAM J.
    Sci. Comput. 35, A652, 2013) survey the approach.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs at least 1 node, got {n}")
    scale = 1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)
    x = [scale * math.cos(math.pi * (4 * k - 1) / (4 * n + 2)) for k in range(1, n // 2 + 1)]
    ode = [
        (2 * (k + 1) / (k + 2), (n * (n + 1) - k * (k + 1)) / ((k + 1) * (k + 2)))
        for k in range(min(n + 1, _TAYLOR_TERMS))
    ]
    slopes = [None] * len(x)
    pending = range(len(x))
    for _ in range(_RECURRENCE_PASSES):
        values, derivatives = _legendre_with_derivative(n, [x[i] for i in pending])
        for i, value, derivative in zip(pending, values, derivatives):
            x[i], slopes[i] = _taylor_root(x[i], value, derivative, ode)
        pending = [i for i in pending if slopes[i] is None]
        if not pending:
            break
    else:
        raise ArithmeticError(f"{len(pending)} nodes of the {n}-point rule did not converge")
    weights = [2.0 / ((1.0 - node) * (1.0 + node) * slope * slope) for node, slope in zip(x, slopes)]
    middle_x, middle_w = [], []
    if n % 2:
        _, (slope,) = _legendre_with_derivative(n, [0.0])
        middle_x, middle_w = [0.0], [2.0 / (slope * slope)]
    nodes = tuple([-node for node in x] + middle_x + x[::-1])
    return nodes, tuple(weights + middle_w + weights[::-1])


class IntegralResult(namedtuple("IntegralResult", ("value", "error_estimate", "n_u", "n_v"))):
    """A sphere integral: ``value`` at twice the requested node counts, the ints ``n_u`` x
    ``n_v``, and as ``error_estimate`` its difference from the pass at those counts."""

    __slots__ = ()


def sphere_sum(form: KForm, model: SpacetimeModel, n_u: int, n_v: int, r0: float, t0: float) -> float:
    """One quadrature pass over the sphere {r=r0, t=t0} at the given node counts.

    Sums each row of the evaluated du^dv coefficient along v, then the row
    sums against the colatitude weights, then scales by the azimuth weight;
    both sums are correctly rounded (``math.fsum``).  A coefficient whose v
    derivative folds to zero is evaluated on the colatitude column only, and
    a row sum is then n_v times the row's value, which is what the row's
    fsum gives.
    """
    coefficient = form.coefficient((0, 1))
    if ex.is_zero(coefficient):
        return 0.0
    nodes, weights = gauss_legendre(n_u)
    colatitudes = [0.5 * math.pi * (x + 1.0) for x in nodes]
    u_weights = [0.5 * math.pi * w for w in weights]
    v_weight = 2.0 * math.pi / n_v
    grid = {"r": r0, "t": t0, "m": model.mass}
    if ex.is_zero(coefficient.diff("v")):
        (column,) = ex.evaluate_many([coefficient], {**grid, "u": colatitudes, "v": math.pi})
        row_sums = [n_v * value for value in column]
    else:
        azimuths = [(j + 0.5) * v_weight for j in range(n_v)]
        grid.update(u=[u for u in colatitudes for _ in azimuths], v=azimuths * n_u)
        (values,) = ex.evaluate_many([coefficient], grid)
        row_sums = [math.fsum(values[i : i + n_v]) for i in range(0, n_u * n_v, n_v)]
    total = math.fsum(w * s for w, s in zip(u_weights, row_sums)) * v_weight
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
    if spec.r0 < ex.horizon_radius(model.mass):
        raise ValueError(
            f"sphere radius {spec.r0} is not outside the horizon of mass {model.mass}"
        )
    coarse = sphere_sum(form, model, spec.n_u, spec.n_v, spec.r0, spec.t0)
    fine = sphere_sum(form, model, 2 * spec.n_u, 2 * spec.n_v, spec.r0, spec.t0)
    return IntegralResult(value=fine, error_estimate=abs(fine - coarse), n_u=spec.n_u, n_v=spec.n_v)
