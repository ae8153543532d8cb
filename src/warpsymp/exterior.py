"""Exterior algebra on the four-dimensional chart.

Antisymmetric k-forms, vector fields, the diagonal metric tensor, and the
standard operations: wedge product, exterior derivative, interior product,
the musical isomorphisms, Hodge star, and the metric pairing.

Conventions, fixed once for the whole package:

* coordinates are numbered (u, v, r, t) = (0, 1, 2, 3);
* forms store coefficients on strictly increasing multi-indices only
  (canonical antisymmetric representation);
* forms evaluate on vectors by the determinant convention, so
  (dx^i ^ dx^j)(X, Y) = X^i Y^j - X^j Y^i with no 1/k! factor;
* the positive orientation is du^dv^dr^dt;
* the interior product contracts the first slot.

Everything is immutable; operations are pure functions.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .expressions import (
    COORDINATE_NAMES,
    Expression,
    Immutable,
    NEG_ONE,
    ONE,
    ZERO,
    Rational,
    add,
    const,
    evaluate_many,
    is_zero,
    mul,
    power,
    quotient,
)

DIM = 4


class DegreeError(ValueError):
    """Raised when an operation is applied at an impossible form degree."""


class SingularMetricError(ValueError):
    """Raised when a metric with identically vanishing determinant is used."""


def _canonicalize(index: tuple) -> tuple:
    """Sort a multi-index, returning (sign, sorted index).

    The sign is the parity of the sorting permutation, or 0 when the index
    has a repeated entry (the antisymmetric component vanishes).
    """
    entries = list(index)
    sign = 1
    for i in range(1, len(entries)):
        j = i
        while j > 0 and entries[j - 1] > entries[j]:
            entries[j - 1], entries[j] = entries[j], entries[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(entries, entries[1:]):
        if a == b:
            return 0, None
    return sign, tuple(entries)


class KForm(namedtuple("KForm", ("degree", "terms"))):
    """A degree-k antisymmetric form with expression coefficients.

    ``terms`` maps strictly increasing multi-indices over (u, v, r, t) to
    coefficient expressions, as a tuple of (index, Expression) pairs sorted
    by index; indices whose coefficient folded to the zero constant are
    dropped.  Degree 0 is a single scalar stored at the empty index.
    """

    __slots__ = ()

    @staticmethod
    def from_terms(degree: int, mapping) -> "KForm":
        if not 0 <= degree <= DIM:
            raise DegreeError(f"degree {degree} outside 0..{DIM}")
        bucket: dict = {}
        for index, coefficient in mapping.items():
            index = tuple(index)
            if len(index) != degree:
                raise ValueError(f"index {index} has wrong length for degree {degree}")
            for axis in index:
                if not 0 <= axis < DIM:
                    raise ValueError(f"axis {axis} outside the chart dimensions")
            sign, sorted_index = _canonicalize(index)
            if sign == 0:
                continue
            if sign == -1:
                coefficient = mul(NEG_ONE, coefficient)
            bucket.setdefault(sorted_index, []).append(coefficient)
        terms = []
        for index in sorted(bucket):
            total = add(*bucket[index])
            if not is_zero(total):
                terms.append((index, total))
        return KForm(degree, tuple(terms))

    @staticmethod
    def zero(degree: int) -> "KForm":
        return KForm(degree, ())

    @staticmethod
    def scalar(expression: Expression) -> "KForm":
        return KForm.from_terms(0, {(): expression})

    def coefficient(self, index) -> Expression:
        """Coefficient at an arbitrary multi-index, with antisymmetric sign."""
        sign, sorted_index = _canonicalize(tuple(index))
        if sign == 0:
            return ZERO
        for stored, coefficient in self.terms:
            if stored == sorted_index:
                return coefficient if sign == 1 else mul(NEG_ONE, coefficient)
        return ZERO

    def as_scalar(self) -> Expression:
        if self.degree != 0:
            raise DegreeError("as_scalar requires a degree-0 form")
        return self.coefficient(())

    def scaled(self, factor) -> "KForm":
        return KForm.from_terms(
            self.degree, {index: mul(factor, coefficient) for index, coefficient in self.terms}
        )

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degree")
        merged = dict(self.terms)
        for index, coefficient in other.terms:
            merged[index] = add(merged[index], coefficient) if index in merged else coefficient
        return KForm.from_terms(self.degree, merged)

    def __sub__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self + other.scaled(NEG_ONE)

    def evaluate_at(self, point) -> dict:
        values = evaluate_many([coefficient for _, coefficient in self.terms], point)
        return {index: value for (index, _), (value,) in zip(self.terms, values)}

    def max_abs_at(self, point) -> float:
        """Largest coefficient magnitude at a point (0 for the empty form)."""
        return max([0.0, *map(abs, self.evaluate_at(point).values())])


class VectorField(namedtuple("VectorField", ("components",))):
    """Contravariant field: ``components`` holds one Expression per axis (u, v, r, t)."""

    __slots__ = ()

    def apply(self, scalar: Expression) -> Expression:
        """Directional derivative of a scalar along the field.  As in
        ``interior_product``, a component that folded to the zero constant
        is skipped: its term would fold to ZERO, so the scalar is not
        differentiated along its coordinate."""
        return add(
            *[
                mul(component, scalar.diff(name))
                for component, name in zip(self.components, COORDINATE_NAMES)
                if not is_zero(component)
            ]
        )

    def evaluate_at(self, point) -> tuple:
        return tuple(value for (value,) in evaluate_many(self.components, point))


def basis_vector(axis: int) -> VectorField:
    components = [ZERO] * DIM
    components[axis] = ONE
    return VectorField(tuple(components))


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    return VectorField(
        tuple(
            add(x.apply(y.components[i]), mul(NEG_ONE, y.apply(x.components[i])))
            for i in range(DIM)
        )
    )


class MetricTensor(Immutable):
    """A diagonal metric: ``diagonal`` holds (g_uu, g_vv, g_rr, g_tt).

    Every model the package builds is static and diagonal in (u, v, r, t).
    The inverse and the volume density are built on first use and kept on
    the metric, so every form derived from one metric shares their nodes.
    """

    def __init__(self, diagonal: tuple):
        vars(self)["diagonal"] = diagonal

    @cached_property
    def inverse(self) -> tuple:
        """The inverse metric's diagonal, 1/g_ii."""
        if any(map(is_zero, self.diagonal)):
            raise SingularMetricError("a diagonal metric entry is identically zero")
        return tuple(quotient(ONE, entry) for entry in self.diagonal)

    @cached_property
    def volume_density(self) -> Expression:
        """sqrt(-det g), rooted entry by entry, so that no product of the
        entries (r^4 for Schwarzschild) is ever formed."""
        *space, g_tt = self.diagonal
        return mul(*(power(g, Rational(1, 2)) for g in (*space, mul(NEG_ONE, g_tt))))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-antisymmetric product in the canonical representation."""
    degree = a.degree + b.degree
    if degree > DIM:
        raise DegreeError(f"wedge degree {degree} exceeds the chart dimension")
    accumulated: dict = {}
    for index_a, coefficient_a in a.terms:
        for index_b, coefficient_b in b.terms:
            sign, index = _canonicalize(index_a + index_b)
            if sign == 0:
                continue
            term = mul(const(sign), coefficient_a, coefficient_b)
            accumulated[index] = add(accumulated[index], term) if index in accumulated else term
    return KForm.from_terms(degree, accumulated)


def exterior_derivative(a: KForm) -> KForm:
    if a.degree >= DIM:
        raise DegreeError("exterior derivative of a top-degree form")
    accumulated: dict = {}
    for index, coefficient in a.terms:
        for axis, name in enumerate(COORDINATE_NAMES):
            derivative = coefficient.diff(name)
            if is_zero(derivative):
                continue
            accumulated[(axis,) + index] = derivative
    return KForm.from_terms(a.degree + 1, accumulated)


def interior_product(x: VectorField, a: KForm) -> KForm:
    """Contraction of the first slot: (i_X a)(Y...) = a(X, Y...)."""
    if a.degree == 0:
        raise DegreeError("interior product of a 0-form")
    accumulated: dict = {}
    for index, coefficient in a.terms:
        for position, axis in enumerate(index):
            component = x.components[axis]
            if is_zero(component):
                continue
            sign = ONE if position % 2 == 0 else NEG_ONE
            rest = index[:position] + index[position + 1 :]
            term = mul(sign, component, coefficient)
            accumulated[rest] = add(accumulated[rest], term) if rest in accumulated else term
    return KForm.from_terms(a.degree - 1, accumulated)


def flat(x: VectorField, metric: MetricTensor) -> KForm:
    """Lower the index: flat(X) = g(X, .) as a 1-form."""
    return KForm.from_terms(
        1, {(i,): mul(g, x.components[i]) for i, g in enumerate(metric.diagonal)}
    )


def sharp(alpha: KForm, metric: MetricTensor) -> VectorField:
    """Raise the index of a 1-form with the inverse metric."""
    if alpha.degree != 1:
        raise DegreeError("sharp requires a 1-form")
    return VectorField(
        tuple(mul(g, alpha.coefficient((i,))) for i, g in enumerate(metric.inverse))
    )


def metric_inner(x: VectorField, y: VectorField, metric: MetricTensor) -> Expression:
    return add(*map(mul, metric.diagonal, x.components, y.components))


def hodge_star(a: KForm, metric: MetricTensor) -> KForm:
    """Hodge dual for the Lorentzian metric, orientation du^dv^dr^dt.

    Defined through alpha ^ star(beta) = <alpha, beta> vol, with the volume
    form sqrt(-det g) du^dv^dr^dt; on this signature star(star(a)) equals
    -(-1)^(k(4-k)) a.  For the diagonal metric each term a_I dx^I goes to
    sign(I, J) sqrt(-det g) a_I prod_{i in I} g^ii dx^J, J the complement
    of I.
    """
    inverse = metric.inverse
    out: dict = {}
    for index, coefficient in a.terms:
        complement = tuple(i for i in range(DIM) if i not in index)
        sign, _ = _canonicalize(index + complement)
        out[complement] = mul(
            const(sign), metric.volume_density, coefficient, *(inverse[i] for i in index)
        )
    return KForm.from_terms(DIM - a.degree, out)


def pairing(alpha: KForm, x: VectorField) -> Expression:
    """Evaluate a 1-form on a vector field."""
    if alpha.degree != 1:
        raise DegreeError("pairing requires a 1-form")
    return interior_product(x, alpha).as_scalar()
