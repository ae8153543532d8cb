"""Exterior algebra on the four-dimensional chart.

Antisymmetric k-forms, vector fields, the metric tensor, and the standard
operations: wedge product, exterior derivative, interior product, the
musical isomorphisms, Hodge star, and the metric pairing.

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

import itertools
from functools import cached_property
from typing import NamedTuple

from .expressions import (
    COORDINATE_NAMES,
    ChartPoint,
    Expression,
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


class KForm(NamedTuple):
    """A degree-k antisymmetric form with expression coefficients.

    ``terms`` maps strictly increasing multi-indices over (u, v, r, t) to
    coefficient expressions; indices whose coefficient folded to the zero
    constant are dropped.  Degree 0 is a single scalar stored at the empty
    index.
    """

    degree: int
    terms: tuple  # ((index, Expression), ...) sorted by index

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

    def __neg__(self):
        return self.scaled(NEG_ONE)

    def evaluate_at(self, point: ChartPoint) -> dict:
        values = evaluate_many([coefficient for _, coefficient in self.terms], point.as_dict())
        return {index: value for (index, _), (value,) in zip(self.terms, values)}

    def max_abs(self, at) -> list:
        """Largest coefficient magnitude at each point of ``at`` (points or
        an input mapping, as for ``evaluate_many``); 0 for the empty form.
        A NaN coefficient is passed over."""
        zeros, *values = evaluate_many([ZERO, *(coefficient for _, coefficient in self.terms)], at)
        # max keeps its first argument, 0, against NaN
        return list(map(max, zeros, *(map(abs, column) for column in values))) if values else zeros

    def max_abs_at(self, point: ChartPoint) -> float:
        """Largest coefficient magnitude at a point (0 for the empty form)."""
        return self.max_abs(point.as_dict())[0]


class VectorField(NamedTuple):
    """Contravariant field with one expression per coordinate direction."""

    components: tuple  # 4 Expressions ordered (u, v, r, t)

    def apply(self, scalar: Expression) -> Expression:
        """Directional derivative of a scalar along the field."""
        return add(
            *[
                mul(component, scalar.diff(name))
                for component, name in zip(self.components, COORDINATE_NAMES)
            ]
        )

    def scaled(self, factor) -> "VectorField":
        return VectorField(tuple(mul(factor, c) for c in self.components))

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(tuple(add(a, b) for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return self.scaled(NEG_ONE)

    def evaluate_at(self, point: ChartPoint) -> tuple:
        return tuple(value for (value,) in evaluate_many(self.components, point.as_dict()))


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


class MetricTensor:
    """Symmetric rank-2 covariant tensor; only the upper triangle is stored.

    ``upper`` holds 10 Expressions, row-major over i <= j.  The determinant
    and the inverse are built on first use and kept on the metric, so every
    form derived from one metric shares their nodes.
    """

    def __init__(self, upper: tuple):
        vars(self)["upper"] = upper

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a MetricTensor is immutable")

    @staticmethod
    def from_entries(mapping) -> "MetricTensor":
        entries: dict = {}
        for (i, j), expression in mapping.items():
            key = (min(i, j), max(i, j))
            if key in entries and entries[key] != expression:
                raise ValueError(f"conflicting entries for {key}")
            entries[key] = expression
        upper = tuple(
            entries.get((i, j), ZERO) for i in range(DIM) for j in range(i, DIM)
        )
        return MetricTensor(upper)

    def entry(self, i: int, j: int) -> Expression:
        if i > j:
            i, j = j, i
        offset = i * DIM - i * (i - 1) // 2
        return self.upper[offset + (j - i)]

    def matrix(self) -> tuple:
        return tuple(tuple(self.entry(i, j) for j in range(DIM)) for i in range(DIM))

    @cached_property
    def determinant(self) -> Expression:
        rows = self.matrix()
        pieces = []
        for j in range(DIM):
            if is_zero(rows[0][j]):
                continue
            sign = ONE if j % 2 == 0 else NEG_ONE
            pieces.append(mul(sign, rows[0][j], _det3(_minor(rows, 0, j))))
        return add(*pieces)

    @cached_property
    def inverse(self) -> tuple:
        """Inverse metric as a 4x4 tuple of expressions (adjugate over determinant)."""
        determinant = self.determinant
        if is_zero(determinant):
            raise SingularMetricError("metric determinant is identically zero")
        rows = self.matrix()
        inverse = []
        for i in range(DIM):
            row = []
            for j in range(DIM):
                sign = ONE if (i + j) % 2 == 0 else NEG_ONE
                # adjugate transposes the cofactor matrix; the metric is
                # symmetric so cofactor(j, i) = cofactor(i, j)
                row.append(quotient(mul(sign, _det3(_minor(rows, j, i))), determinant))
            inverse.append(tuple(row))
        return tuple(inverse)


def _det3(m) -> Expression:
    return add(
        mul(m[0][0], add(mul(m[1][1], m[2][2]), mul(NEG_ONE, m[1][2], m[2][1]))),
        mul(NEG_ONE, m[0][1], add(mul(m[1][0], m[2][2]), mul(NEG_ONE, m[1][2], m[2][0]))),
        mul(m[0][2], add(mul(m[1][0], m[2][1]), mul(NEG_ONE, m[1][1], m[2][0]))),
    )


def _minor(rows, drop_row: int, drop_col: int):
    return [
        [entry for j, entry in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]


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
        1,
        {
            (i,): add(*[mul(metric.entry(i, j), x.components[j]) for j in range(DIM)])
            for i in range(DIM)
        },
    )


def sharp(alpha: KForm, metric: MetricTensor) -> VectorField:
    """Raise the index of a 1-form with the inverse metric."""
    if alpha.degree != 1:
        raise DegreeError("sharp requires a 1-form")
    inverse = metric.inverse
    return VectorField(
        tuple(
            add(*[mul(inverse[i][j], alpha.coefficient((j,))) for j in range(DIM)])
            for i in range(DIM)
        )
    )


def metric_inner(x: VectorField, y: VectorField, metric: MetricTensor) -> Expression:
    return add(
        *[
            mul(metric.entry(i, j), x.components[i], y.components[j])
            for i in range(DIM)
            for j in range(DIM)
        ]
    )


def _raise_indices(a: KForm, index: tuple, inverse) -> Expression:
    """Fully contravariant component a^index via the inverse metric."""
    k = len(index)
    if k == 0:
        return a.coefficient(())
    pieces = []
    for source in itertools.product(range(DIM), repeat=k):
        base = a.coefficient(source)
        if is_zero(base):
            continue
        factors = [inverse[index[p]][source[p]] for p in range(k)]
        pieces.append(mul(*factors, base))
    return add(*pieces)


def hodge_star(a: KForm, metric: MetricTensor) -> KForm:
    """Hodge dual for the Lorentzian metric, orientation du^dv^dr^dt.

    Defined through alpha ^ star(beta) = <alpha, beta> vol, with the volume
    form sqrt(-det g) du^dv^dr^dt; on this signature star(star(a)) equals
    -(-1)^(k(4-k)) a.
    """
    inverse = metric.inverse
    volume_density = power(mul(NEG_ONE, metric.determinant), Rational(1, 2))
    k = a.degree
    out: dict = {}
    for target in itertools.combinations(range(DIM), DIM - k):
        pieces = []
        for source in itertools.combinations(range(DIM), k):
            sign, _ = _canonicalize(source + target)
            if sign == 0:
                continue
            raised = _raise_indices(a, source, inverse)
            if is_zero(raised):
                continue
            pieces.append(mul(const(sign), raised))
        if pieces:
            out[target] = mul(volume_density, add(*pieces))
    return KForm.from_terms(DIM - k, out)


def pairing(alpha: KForm, x: VectorField) -> Expression:
    """Evaluate a 1-form on a vector field."""
    if alpha.degree != 1:
        raise DegreeError("pairing requires a 1-form")
    return interior_product(x, alpha).as_scalar()
