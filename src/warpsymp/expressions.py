"""Scalar closed forms over the exterior cut chart.

Every tensor coefficient in this package is an immutable expression tree
over the chart coordinates (u, v, r, t) and the mass parameter, with exact
symbolic differentiation and guarded numeric evaluation.  Simplification is
deliberately shallow: constant folding plus the x+0, x*0, x*1 and
exp(ln x) = x rules.  Identities between expressions are established
numerically at sampled chart points, never by tree canonicalisation.  A
power's exponent is an exact ``Rational`` pair, whose float is numerator /
denominator, as a ``fractions.Fraction``'s is; no command imports
``fractions``.

Nodes are immutable and interned (hash-consing: Filliâtre & Conchon,
"Type-safe modular hash-consing", ML Workshop 2006).  Each node class lists
its fields in ``_fields``, and building a node returns the node already
built with the same class and fields, its children compared by identity.
So structurally equal nodes are one object, identity is equality, and
nodes are safe to share between threads.  A constant keys by its sign too,
so 0.0 and -0.0 are two nodes, and a NaN constant by its float object.  The
table keeps every node for the life of the process.  ``vars(node)`` holds
exactly the fields.  Each node keeps its operand nodes, read off the fields
once, and caches its partial derivatives, in slots outside the fields, so
differentiating a node twice, from any builder, returns the same tree and
derivative DAGs stay shared.

Evaluation has one path, ``evaluate_many``: it orders the DAG under several
roots topologically and computes each node once over a flat batch of
points, with the ``math`` module's kernels.  A value that is constant over
the batch stays a float; any other value is a list with one float per
point.  ``Expression.evaluate`` is its one-point call.

Besides the chart coordinates and the mass, a tree may read parameters:
``Parameter`` leaves are constant on the chart, so a family of expressions
that differ only in a few numbers is one tree.  A parameter's values are an
extra key of the ``evaluate_many`` input mapping, one per point of the
batch like a coordinate's.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import repeat

COORDINATE_NAMES = ("u", "v", "r", "t")

# Relative margin by which a radius must clear the horizon r = 2m.
HORIZON_MARGIN = 1e-6


class ChartDomainError(ValueError):
    """Raised for points outside the exterior cut chart."""


class EvaluationError(ArithmeticError):
    """Raised when a closed form hits a branch cut or a zero denominator."""


class Immutable:
    """Base of the package's immutable value classes: assigning any
    attribute raises.  A constructor sets its fields with
    ``object.__setattr__``, or through ``vars(self)`` in a class with a
    ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")


def horizon_radius(mass: float) -> float:
    """The chart's least radius: the horizon 2m widened by ``HORIZON_MARGIN``."""
    return 2.0 * mass * (1.0 + HORIZON_MARGIN)


class PointSet(Immutable):
    """Chart points (colatitude u, azimuth v, areal radius r, static time t)
    sharing one mass m, held as one tuple of floats per coordinate.  Each
    point needs finite values, m > 0, u in (0, pi), v in (0, 2 pi) and
    r >= ``horizon_radius(m)``, since the warp factor blows up at r = 2m;
    the first bad point raises the ChartDomainError of the first of these
    guards it breaks.  ``points[k]`` gives point k as a mapping of u, v, r,
    t and m to floats (iteration runs through the indices, up to the
    IndexError), ``points[a:b]`` a PointSet.  Point sets are immutable.
    """

    __slots__ = ("u", "v", "r", "t", "m")

    def __init__(self, u, v, r, t, m: float):
        columns = [tuple(map(float, x)) for x in (u, v, r, t)]
        m = float(m)
        for name, value in zip(self.__slots__, (*columns, m)):
            object.__setattr__(self, name, value)
        mass_ok = math.isfinite(m) and m > 0.0
        horizon, two_pi, inf = horizon_radius(m), 2.0 * math.pi, math.inf
        # the open ranges exclude NaN and infinities
        for a, b, c, d in zip(*columns):
            if (
                mass_ok and 0.0 < a < math.pi and 0.0 < b < two_pi and horizon <= c < inf
                and -inf < d < inf
            ):
                continue
            for name, value in zip(self.__slots__, (a, b, c, d, m)):
                if not math.isfinite(value):
                    raise ChartDomainError(f"coordinate {name} must be finite")
            if m <= 0.0:
                raise ChartDomainError(f"mass must be positive, got {m}")
            if not 0.0 < a < math.pi:
                raise ChartDomainError(f"colatitude u={a} outside (0, pi)")
            if not 0.0 < b < two_pi:
                raise ChartDomainError(f"azimuth v={b} outside (0, 2*pi)")
            raise ChartDomainError(
                f"radius r={c} violates the horizon guard r >= 2m(1+{HORIZON_MARGIN}) for m={m}"
            )

    def __len__(self):
        return len(self.u)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PointSet(self.u[key], self.v[key], self.r[key], self.t[key], self.m)
        return {"u": self.u[key], "v": self.v[key], "r": self.r[key], "t": self.t[key], "m": self.m}


# Every node built, under its class and fields: the table that makes
# structurally equal nodes one object.  Children key by identity, since they
# are interned already.  A plain dict, so that each node and its derivative
# memo live as long as the process.
_NODES = {}


def _interned(cls, key, values):
    """The node under ``key``, built from the field ``values`` if there is
    none; ``setdefault`` keeps one node when two threads build it at once.
    A value of the wrong type for its field (``cls._kinds``) is a TypeError,
    and a coordinate not named in COORDINATE_NAMES a ValueError, both
    checked only where a node is built, which also sets the node's
    ``children``: its operand fields' nodes, in field order."""
    node = _NODES.get(key)
    if node is None:
        children = ()
        for name, value, kind in zip(cls._fields, values, cls._kinds):
            items = (value,)
            if kind is tuple and isinstance(value, tuple):  # a tuple of operand nodes
                kind, items = Expression, value
            for item in items:
                if not isinstance(item, kind):
                    raise TypeError(
                        f"{cls.__name__} takes {kind.__name__} {name}, not {type(item).__name__}"
                    )
            if kind is Expression:
                children += items
        if cls is Coordinate and values[0] not in COORDINATE_NAMES:
            raise ValueError(f"unknown coordinate {values[0]!r}")
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "children", children)
        node = _NODES.setdefault(key, node)
    return node


class Expression(Immutable):
    """Base class of all expression-tree nodes.

    ``_fields`` names a node class's fields in order and ``_kinds`` gives
    each one's type (``tuple`` for a tuple of operand nodes); the
    constructor takes them positionally and returns the interned node, and
    repr reads them.
    Equality and hash are identity's.  ``children`` are the operand nodes,
    read off the fields when the node is built: one per ``Expression``
    field and each node of a ``tuple`` field, in field order.  ``_apply``
    computes the node from their values (each a float or a list of one
    float per point of the batch) and the chart inputs, and ``_rule`` is
    the node's differentiation rule; every node class defines both.  An
    operator node prints as ``(SYMBOL CHILD...)`` with its ``_symbol``.
    """

    __slots__ = ("_derivatives", "children")
    _fields = _kinds = ()

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        return _interned(cls, (cls, *values), values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def evaluate(self, point) -> float:
        """The value at one point, a mapping (a one-point ``evaluate_many``)."""
        return evaluate_many([self], point)[0][0]

    def diff(self, coordinate: str) -> "Expression":
        """Exact partial derivative with respect to a chart coordinate."""
        if coordinate not in COORDINATE_NAMES:
            raise ValueError(f"unknown coordinate {coordinate!r}")
        return self._diff(coordinate)

    def _diff(self, coordinate: str) -> "Expression":
        """``_rule`` memoised per coordinate in the ``_derivatives`` slot,
        which the fields and repr do not see."""
        cache = getattr(self, "_derivatives", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_derivatives", cache)
        derivative = cache.get(coordinate)
        if derivative is None:
            derivative = cache[coordinate] = self._rule(coordinate)
        return derivative

    def to_prefix(self) -> str:
        """Stable prefix-notation serialisation, as error messages print it."""
        return f"({self._symbol} {' '.join(child.to_prefix() for child in self.children)})"

    def __str__(self):
        return self.to_prefix()

    # Arithmetic sugar: x + y, x - y, x * y and x / y, with an expression on
    # the left; each routes through the folding constructors below.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __sub__(self, other):
        return add(self, mul(NEG_ONE, _coerce(other)))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __truediv__(self, other):
        return quotient(self, _coerce(other))


class Constant(Expression):
    """A float constant; an int value is stored as its float."""

    _fields, _kinds = ("value",), (float,)

    def __new__(cls, value):
        if not isinstance(value, (int, float)):
            raise TypeError(f"a constant takes an int or a float, not {type(value).__name__}")
        value = float(value)
        # the sign keeps 0.0 and -0.0 apart; a NaN keys by its float object
        return _interned(cls, (cls, value, math.copysign(1.0, value)), (value,))

    def _apply(self, values, inputs):
        return self.value

    def _rule(self, coordinate):
        return ZERO

    def to_prefix(self):
        return repr(self.value)


class Coordinate(Expression):
    _fields, _kinds = ("name",), (str,)

    def _apply(self, values, inputs):
        return inputs[self.name]

    def _rule(self, coordinate):
        return ONE if coordinate == self.name else ZERO

    def to_prefix(self):
        return self.name


class MassParameter(Expression):
    """The mass parameter of the ambient model; constant on the chart."""

    def _apply(self, values, inputs):
        return inputs["m"]

    def _rule(self, coordinate):
        return ZERO

    def to_prefix(self):
        return "m"


class Parameter(Expression):
    """A named number that is constant on the chart.  The value is read
    from the input mapping under the parameter itself."""

    _fields, _kinds = ("name",), (str,)

    def _apply(self, values, inputs):
        return inputs[self]

    def _rule(self, coordinate):
        return ZERO

    def to_prefix(self):
        return f"(param {self.name})"


class Sum(Expression):
    _fields, _kinds, _symbol = ("terms",), (tuple,), "+"

    def _apply(self, values, inputs):
        if not any(map(_is_batch, values)):
            return _fsum(values)
        if len(values) == 2:
            # IEEE a + b is rounded once, as fsum's sum is, but fsum gives
            # 0.0 for -0.0 + -0.0; a batch with a non-finite sum takes _fsum
            sums = _combine(operator.add, *values)
            if math.isfinite(sum(sums)):
                return [x + 0.0 for x in sums] if 0.0 in sums else sums
        columns = [value if _is_batch(value) else repeat(value) for value in _tiled(values)]
        if len(values) > 2:
            try:
                sums = list(map(math.fsum, zip(*columns)))
                if math.inf not in sums and -math.inf not in sums:
                    return sums
            except (OverflowError, ValueError):
                pass
        return list(map(_fsum, zip(*columns)))

    def _rule(self, coordinate):
        return add(*[term._diff(coordinate) for term in self.terms])


class Product(Expression):
    _fields, _kinds, _symbol = ("factors",), (tuple,), "*"

    def _apply(self, values, inputs):
        out = values[0]
        for value in values[1:]:
            out = _combine(operator.mul, out, value)
        return out

    def _rule(self, coordinate):
        pieces = []
        for i, factor in enumerate(self.factors):
            derivative = factor._diff(coordinate)
            if not is_zero(derivative):  # its piece would fold to ZERO in mul
                pieces.append(mul(*self.factors[:i], derivative, *self.factors[i + 1 :]))
        return add(*pieces)


class Quotient(Expression):
    _fields, _kinds, _symbol = ("numerator", "denominator"), (Expression, Expression), "/"

    def _apply(self, values, inputs):
        numerator, denominator = values
        if 0.0 in denominator if _is_batch(denominator) else denominator == 0.0:
            text = self.to_prefix()  # cut, so that the error stays one short line
            raise EvaluationError(f"zero denominator in {text[:80]}{'…' * (len(text) > 80)}")
        return _combine(operator.truediv, numerator, denominator)

    def _rule(self, coordinate):
        """(a/b)' = (a' - (a/b) b')/b: dividing by b twice, never by b^2,
        keeps the derivative in range wherever the quotient is."""
        a, b = self.numerator, self.denominator
        return quotient(add(a._diff(coordinate), mul(NEG_ONE, self, b._diff(coordinate))), b)


class Rational(namedtuple("Rational", ("numerator", "denominator"))):
    """An exact exponent of ints; ``power`` keeps it in lowest terms, denominator > 0."""

    __slots__ = ()

    def __float__(self):
        return self.numerator / self.denominator


def _powers(base, exponent):
    try:
        return _combine(math.pow, base, exponent)
    except OverflowError:
        return _combine(_overflowing_power, base, exponent)


def _overflowing_power(x, exponent):
    """x ** exponent, infinite where it overflows: negative for a negative
    x and an odd exponent."""
    try:
        return math.pow(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x) if exponent % 2.0 == 1.0 else math.inf


# Exponents with a correctly rounded kernel (x * x, 1 / x and math.sqrt);
# the rest go through math.pow.
_POWER_KERNELS = {
    Rational(2, 1): lambda base, exponent: _combine(operator.mul, base, base),
    Rational(-1, 1): lambda base, exponent: _combine(operator.truediv, 1.0, base),
    Rational(1, 2): lambda base, exponent: _elementwise(math.sqrt, base),
}


class Power(Expression):
    """base raised to a fixed rational exponent."""

    _fields, _kinds = ("base", "exponent"), (Expression, Rational)

    def _apply(self, values, inputs):
        (base,) = values
        q = self.exponent
        batch = _is_batch(base)
        if q.denominator != 1 and (any(map(_is_negative, base)) if batch else base < 0.0):
            raise EvaluationError("fractional power of a negative base")
        if q.numerator < 0 and (0.0 in base if batch else base == 0.0):
            raise EvaluationError("zero base with negative exponent")
        return _POWER_KERNELS.get(q, _powers)(base, float(q))

    def _rule(self, coordinate):
        db = self.base._diff(coordinate)
        n, d = q = self.exponent
        return mul(Constant(float(q)), power(self.base, Rational(n - d, d)), db)

    def to_prefix(self):
        n, d = self.exponent
        return f"(pow {self.base.to_prefix()} {n if d == 1 else f'{n}/{d}'})"


class Exp(Expression):
    _fields, _kinds, _symbol = ("arg",), (Expression,), "exp"

    def _apply(self, values, inputs):
        try:
            return _elementwise(math.exp, values[0])
        except OverflowError:  # math.exp raises only for a finite argument
            raise EvaluationError("exp overflow") from None

    def _rule(self, coordinate):
        return mul(exp(self.arg), self.arg._diff(coordinate))


class Log(Expression):
    _fields, _kinds, _symbol = ("arg",), (Expression,), "ln"

    def _apply(self, values, inputs):
        (arg,) = values
        if any(map(_is_non_positive, arg)) if _is_batch(arg) else arg <= 0.0:
            raise EvaluationError(f"log of non-positive value {_least(arg)}")
        return _elementwise(math.log, arg)

    def _rule(self, coordinate):
        return quotient(self.arg._diff(coordinate), self.arg)


class Sin(Expression):
    _fields, _kinds, _symbol = ("arg",), (Expression,), "sin"

    def _apply(self, values, inputs):
        return _periodic(math.sin, values[0])

    def _rule(self, coordinate):
        return mul(cos(self.arg), self.arg._diff(coordinate))


class Cos(Expression):
    _fields, _kinds, _symbol = ("arg",), (Expression,), "cos"

    def _apply(self, values, inputs):
        return _periodic(math.cos, values[0])

    def _rule(self, coordinate):
        return mul(NEG_ONE, sin(self.arg), self.arg._diff(coordinate))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _is_batch(value) -> bool:
    """True for a value with one float per point, False for a float."""
    return not isinstance(value, float)


# x < 0 and x <= 0 as C-level predicates; NaN satisfies neither
_is_negative = (0.0).__gt__
_is_non_positive = (0.0).__ge__


def _elementwise(function, value):
    return list(map(function, value)) if _is_batch(value) else function(value)


def _periodic(function, value):
    """sin or cos of a value; an infinite argument gives NaN, where
    ``math`` raises."""
    try:
        return _elementwise(function, value)
    except ValueError:
        return _elementwise(lambda x: math.nan if math.isinf(x) else function(x), value)


def _least(value) -> float:
    """The smallest of a value's floats, NaN if any is NaN."""
    if not _is_batch(value):
        return value
    return math.nan if any(x != x for x in value) else min(value)


def _tiled(values: list) -> list:
    """``values`` with each list at the length of the longest: a shorter
    list stands for its floats repeated whole."""
    sizes = {len(value) for value in values if _is_batch(value)}
    if len(sizes) < 2:
        return values
    size = max(sizes)
    return [value * (size // len(value)) if _is_batch(value) else value for value in values]


def _combine(operation, a, b):
    """``operation(a, b)`` at each point; a float stands for itself at
    every point."""
    if a.__class__ is float:
        if b.__class__ is float:
            return operation(a, b)
        return list(map(operation, repeat(a), b))
    if b.__class__ is float:
        return list(map(operation, a, repeat(b)))
    if len(a) != len(b):
        a, b = _tiled([a, b])
    return list(map(operation, a, b))


def _fsum(terms) -> float:
    """``math.fsum`` (Shewchuk, Discrete Comput. Geom. 18, 1997), correctly
    rounded; NaN where a term is not finite or the sum overflows."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan
    return total if math.isfinite(total) else math.nan


def _batch_input(value):
    try:
        return float(value)
    except TypeError:
        return tuple(map(float, value))


def chart_inputs(at) -> dict:
    """Input values by name from a PointSet or an input mapping: a float,
    or a tuple with one float per point.

    A point set gives its own tuples and mass.  A mapping is copied, extra
    keys (parameters) included, with each value made a float or a tuple of
    floats.
    """
    if isinstance(at, PointSet):
        return {name: getattr(at, name) for name in PointSet.__slots__}
    return {name: _batch_input(value) for name, value in at.items()}


def _schedule(roots):
    """Post-order of the DAG under ``roots``, children last first: each node
    once, at its first occurrence, with the positions of its children.  Also
    returns the number of consumers of each position, where each root counts
    one extra so that its value outlives the walk, and the positions of the
    roots."""
    order, uses = [], []
    position = {}  # node -> position; nodes hash and compare by identity
    stack = [(root, None) for root in reversed(roots)]
    while stack:
        node, children = stack.pop()
        if children is None:
            if node not in position:
                children = node.children
                stack.append((node, children))
                for child in children:
                    if child not in position:
                        stack.append((child, None))
            continue
        keys = tuple(map(position.__getitem__, children))
        position[node] = len(order)
        order.append((node, keys))
        uses.append(0)
        for key in keys:
            uses[key] += 1
    outputs = [position[root] for root in roots]
    for at in outputs:
        uses[at] += 1
    return order, uses, outputs


def evaluate_many(roots, at) -> list:
    """Values of several expressions over a flat batch of chart points.

    ``at`` is a PointSet or a mapping of the names u, v, r, t and m to
    numbers or sequences of one number per point (a sphere grid is its
    nodes listed one by one, with r, t, m numbers).  The
    mapping may hold further keys: the ``Parameter`` leaves of the roots,
    with their values in the same form.  The longest sequence sets the
    batch (with none, the batch is one point); each length must divide
    every longer one, and a shorter sequence stands for its values repeated
    whole, such as a point set repeated
    for each member of a section family.  Each node is computed once, and
    nodes are interned, so structurally equal nodes are one node.  A value
    constant over the batch stays a float, and an intermediate value is
    dropped after its last consumer.  Returns
    one list per root, with one float per point.  Arithmetic follows IEEE
    rules: infinities and NaN propagate.  Raises EvaluationError if any
    point hits a guard: a zero denominator, the log of a non-positive value,
    a fractional power of a negative base, a zero base with a negative
    exponent, or an overflowing exp.
    """
    inputs = chart_inputs(at)
    sizes = sorted({len(value) for value in inputs.values() if _is_batch(value)})
    size = sizes[-1] if sizes else 1
    # each length must divide the next, so that tiling any two inputs to
    # the longer of them agrees with tiling both to the batch
    if any(n == 0 or longer % n for n, longer in zip(sizes, sizes[1:])):
        raise ValueError(f"batch input lengths {sizes} do not divide one another")
    order, uses, outputs = _schedule(roots)
    values = [None] * len(order)
    for at, (node, keys) in enumerate(order):
        values[at] = node._apply([values[key] for key in keys], inputs)
        for key in keys:
            uses[key] -= 1
            if not uses[key]:
                values[key] = None
    return [_as_list(values[at], size) for at in outputs]


def _as_list(value, size: int) -> list:
    if not _is_batch(value):
        return [value] * size
    value = value if isinstance(value, list) else list(value)
    return value * (size // len(value)) if len(value) < size else value


# ---------------------------------------------------------------------------
# Folding constructors.  These are the only way the rest of the package
# builds nodes, which keeps trees free of trivial dead weight without ever
# attempting real canonicalisation.
# ---------------------------------------------------------------------------


def _coerce(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return const(value)
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


def const(value: float) -> Constant:
    return Constant(value)


def _nested(kind, nodes, flat, constant):
    """Walk a nested Sum's or Product's operands depth first, left to right:
    fold the constants into ``constant`` and return it; the rest go to ``flat``."""
    for node in nodes:
        if isinstance(node, kind):  # a nest built by hand
            constant = _nested(kind, node.children, flat, constant)
        elif isinstance(node, Constant):
            constant = constant + node.value if kind is Sum else constant * node.value
        else:
            flat.append(node)
    return constant


def add(*terms) -> Expression:
    flat = []
    constant_part = 0.0
    # depth first through nested sums, left to right
    for term in terms:
        if not isinstance(term, Expression):
            term = _coerce(term)
        if isinstance(term, Sum):
            constant_part = _nested(Sum, term.terms, flat, constant_part)
        elif isinstance(term, Constant):
            constant_part += term.value
        else:
            flat.append(term)
    if constant_part != 0.0:
        flat.append(const(constant_part))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors) -> Expression:
    flat = []
    constant_part = 1.0
    # depth first through nested products, left to right
    for factor in factors:
        if not isinstance(factor, Expression):
            factor = _coerce(factor)
        if isinstance(factor, Product):
            constant_part = _nested(Product, factor.factors, flat, constant_part)
        elif isinstance(factor, Constant):
            constant_part *= factor.value
        else:
            flat.append(factor)
    if constant_part == 0.0:
        return ZERO
    if not flat:
        return const(constant_part)
    if constant_part != 1.0:
        flat.insert(0, const(constant_part))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def quotient(numerator, denominator) -> Expression:
    numerator = _coerce(numerator)
    denominator = _coerce(denominator)
    if isinstance(denominator, Constant):
        if denominator.value == 0.0:
            raise ValueError("division by the zero constant")
        if isinstance(numerator, Constant):
            return const(numerator.value / denominator.value)
        if denominator.value == 1.0:
            return numerator
    if isinstance(numerator, Constant) and numerator.value == 0.0:
        return ZERO
    return Quotient(numerator, denominator)


def power(base, exponent) -> Expression:
    """base ** exponent for an int, an integer-valued float, or a number with
    integer ``numerator`` and ``denominator``, such as a Rational."""
    base = _coerce(base)
    if isinstance(exponent, float):
        if not exponent.is_integer():
            raise TypeError("float exponents are not supported; use Rational")
        exponent = int(exponent)
    n, d = exponent.numerator, exponent.denominator
    if d == 0:
        raise ValueError(f"zero denominator in exponent {n}/{d}")
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)  # refuses non-integers
    n, d = q = Rational(n // g, d // g)
    if n == 0:
        return ONE
    if n == d:
        return base
    if isinstance(base, Constant):
        value = base.value
        if d == 1 and (value != 0.0 or n > 0):
            return const(value**n)
        if value > 0.0:
            return const(value ** float(q))
        if value == 0.0 and n > 0:
            return ZERO
        if value == 0.0:
            raise ValueError("zero constant raised to a negative power")
        raise ValueError("fractional power of a negative constant")
    return Power(base, q)


def exp(arg) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Constant):
        return const(math.exp(arg.value))
    if isinstance(arg, Log):
        return arg.arg
    return Exp(arg)


def log(arg) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Constant):
        if arg.value <= 0.0:
            raise ValueError("log of a non-positive constant")
        return const(math.log(arg.value))
    return Log(arg)


def sin(arg) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Constant):
        return const(math.sin(arg.value))
    return Sin(arg)


def cos(arg) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Constant):
        return const(math.cos(arg.value))
    return Cos(arg)


def is_zero(expression: Expression) -> bool:
    """True only for the folded zero constant; not a semantic zero test."""
    return isinstance(expression, Constant) and expression.value == 0.0


ZERO = Constant(0.0)
ONE = Constant(1.0)
NEG_ONE = Constant(-1.0)
U = Coordinate("u")
V = Coordinate("v")
R = Coordinate("r")
T = Coordinate("t")
M = MassParameter()
COORDINATES = (U, V, R, T)
