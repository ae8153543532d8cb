"""Scalar closed forms over the exterior cut chart.

Every tensor coefficient in this package is an immutable expression tree
over the chart coordinates (u, v, r, t) and the mass parameter, with exact
symbolic differentiation and guarded numeric evaluation.  Simplification is
deliberately shallow: constant folding plus the x+0, x*0, x*1 rules.
Identities between expressions are established numerically at sampled
chart points, never by tree canonicalisation.  A power's exponent is an
exact ``Rational`` pair, whose float is numerator / denominator, as a
``fractions.Fraction``'s is; no command imports ``fractions``.

Nodes are immutable: each node class lists its fields in ``_fields``, and
two nodes are equal (with equal hashes) when they have the same type and
equal fields, so expressions compare structurally and are safe to share
between threads.  ``vars(node)`` holds exactly the fields.  Each node caches
its partial derivatives in a slot outside the fields, so differentiating the
same node twice returns the same tree and derivative DAGs stay shared.

Evaluation has one path, ``evaluate_many``: it orders the DAG under several
roots topologically and computes each node once, as a numpy array over all
sample points at once.  ``Expression.evaluate`` is its one-point call.

Besides the chart coordinates and the mass, a tree may read parameters:
``Parameter`` leaves are constant on the chart, so a family of expressions
that differ only in a few numbers is one tree.  A parameter's values are an
extra key of the ``evaluate_many`` input mapping, and may carry a leading
member axis that the coordinates broadcast against.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

COORDINATE_NAMES = ("u", "v", "r", "t")

# Relative margin by which a radius must clear the horizon r = 2m.
HORIZON_MARGIN = 1e-6


class ChartDomainError(ValueError):
    """Raised for points outside the exterior cut chart."""


class EvaluationError(ArithmeticError):
    """Raised when a closed form hits a branch cut or a zero denominator."""


class ChartPoint:
    """A point of the cut chart: colatitude u, azimuth v, areal radius r,
    static time t, and the mass parameter m of the ambient model.

    The guard keeps r away from the horizon by the relative margin
    ``HORIZON_MARGIN``; the warp factor and its inverse powers blow up at
    r = 2m, so points closer than 2m(1 + margin) are rejected outright
    rather than silently producing garbage.  Points are immutable.
    """

    __slots__ = ("u", "v", "r", "t", "m")

    def __init__(self, u: float, v: float, r: float, t: float, m: float):
        for name, value in zip(self.__slots__, (u, v, r, t, m)):
            if not math.isfinite(value):
                raise ChartDomainError(f"coordinate {name} must be finite")
            object.__setattr__(self, name, value)
        if m <= 0.0:
            raise ChartDomainError(f"mass must be positive, got {m}")
        if not 0.0 < u < math.pi:
            raise ChartDomainError(f"colatitude u={u} outside (0, pi)")
        if not 0.0 < v < 2.0 * math.pi:
            raise ChartDomainError(f"azimuth v={v} outside (0, 2*pi)")
        if r < 2.0 * m * (1.0 + HORIZON_MARGIN):
            raise ChartDomainError(
                f"radius r={r} violates the horizon guard "
                f"r >= 2m(1+{HORIZON_MARGIN}) for m={m}"
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a ChartPoint is immutable")

    def __repr__(self):
        return "ChartPoint(" + ", ".join(f"{k}={x!r}" for k, x in self.as_dict().items()) + ")"

    def as_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "r": self.r, "t": self.t, "m": self.m}


class PointSet:
    """Chart points sharing one mass, held as one read-only float array per
    coordinate.  The ChartPoint guards are applied to all points at once;
    a violation raises the error of the ChartPoint at the first bad index.
    ``points[k]`` gives a ChartPoint (iteration runs through the indices,
    up to the IndexError), ``points[a:b]`` a PointSet.  Point sets are
    immutable.
    """

    __slots__ = ("u", "v", "r", "t", "m")

    def __init__(self, u, v, r, t, m: float):
        u, v, r, t = columns = [np.array(x, dtype=float) for x in (u, v, r, t)]
        for name, value in zip(self.__slots__, (*columns, m)):
            object.__setattr__(self, name, value)
        for column in columns:
            column.flags.writeable = False
        # the open ranges of u and v exclude NaN and infinities
        angles = (0.0 < u) & (u < math.pi) & (0.0 < v) & (v < 2.0 * math.pi)
        radii = (r >= 2.0 * m * (1.0 + HORIZON_MARGIN)) & np.isfinite(r)
        inside = angles & radii & np.isfinite(t) & (math.isfinite(m) and m > 0.0)
        if not inside.all():
            self[int(np.argmin(inside))]  # raises that point's ChartDomainError

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a PointSet is immutable")

    def __len__(self):
        return len(self.u)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PointSet(self.u[key], self.v[key], self.r[key], self.t[key], self.m)
        return ChartPoint(*(float(x[key]) for x in (self.u, self.v, self.r, self.t)), self.m)


class Expression:
    """Base class of all expression-tree nodes.

    ``_fields`` names a node class's fields in order; the constructor takes
    them positionally, and equality, hash and repr read them.
    ``children`` are the operand nodes; ``_apply`` computes the node from
    their values (numbers or arrays that broadcast together) and the chart
    inputs, and ``_rule`` is the node's differentiation rule.
    """

    __slots__ = ("_derivatives",)
    _fields = ()
    children = ()

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        # object.__setattr__ stores the fields without building a dict per
        # node; a counted loop costs less than zip for one or two fields
        index = 0
        for name in fields:
            object.__setattr__(self, name, values[index])
            index += 1

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: expression nodes are immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def evaluate(self, point: ChartPoint) -> float:
        """Evaluate at one chart point (a one-point ``evaluate_many``)."""
        return float(evaluate_many([self], point.as_dict())[0])

    def _apply(self, values: list, inputs: dict):
        raise NotImplementedError

    def diff(self, coordinate: str) -> "Expression":
        """Exact partial derivative with respect to a chart coordinate."""
        if coordinate not in COORDINATE_NAMES:
            raise ValueError(f"unknown coordinate {coordinate!r}")
        return self._diff(coordinate)

    def _diff(self, coordinate: str) -> "Expression":
        """``_rule`` memoised per coordinate in the ``_derivatives`` slot,
        which the fields, equality and hash do not see."""
        cache = getattr(self, "_derivatives", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_derivatives", cache)
        derivative = cache.get(coordinate)
        if derivative is None:
            derivative = cache[coordinate] = self._rule(coordinate)
        return derivative

    def _rule(self, coordinate: str) -> "Expression":
        raise NotImplementedError

    def to_prefix(self) -> str:
        """Stable prefix-notation serialisation (round-trips via parse_prefix)."""
        raise NotImplementedError

    def __str__(self):
        return self.to_prefix()

    # Arithmetic sugar; every operator routes through the folding
    # constructors below.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, mul(NEG_ONE, _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(NEG_ONE, self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return quotient(self, _coerce(other))

    def __rtruediv__(self, other):
        return quotient(_coerce(other), self)

    def __neg__(self):
        return mul(NEG_ONE, self)

    def __pow__(self, exponent):
        return power(self, exponent)


class Constant(Expression):
    _fields = ("value",)

    def _apply(self, values, inputs):
        return self.value

    def _rule(self, coordinate):
        return ZERO

    def to_prefix(self):
        return repr(self.value)


class Coordinate(Expression):
    _fields = ("name",)

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

    _fields = ("name",)

    def _apply(self, values, inputs):
        return inputs[self]

    def _rule(self, coordinate):
        return ZERO

    def to_prefix(self):
        return f"(param {self.name})"


class Sum(Expression):
    _fields = ("terms",)

    @property
    def children(self):
        return self.terms

    def _apply(self, values, inputs):
        # TwoSum cascade (Sum2 of Ogita, Rump & Oishi, SIAM J. Sci. Comput.
        # 2005): the rounding error of each partial sum is recovered exactly
        # and added back at the end, as accurate as summing in twice the
        # working precision.
        total, error = values[0], 0.0
        for value in values[1:]:
            partial = total + value
            excess = partial - total
            error = error + ((total - (partial - excess)) + (value - excess))
            total = partial
        return total + error

    def _rule(self, coordinate):
        return add(*[term._diff(coordinate) for term in self.terms])

    def to_prefix(self):
        return "(+ " + " ".join(t.to_prefix() for t in self.terms) + ")"


class Product(Expression):
    _fields = ("factors",)

    @property
    def children(self):
        return self.factors

    def _apply(self, values, inputs):
        out = values[0]
        for value in values[1:]:
            out = out * value
        return out

    def _rule(self, coordinate):
        pieces = []
        for i, factor in enumerate(self.factors):
            derivative = factor._diff(coordinate)
            if not is_zero(derivative):  # its piece would fold to ZERO in mul
                pieces.append(mul(*self.factors[:i], derivative, *self.factors[i + 1 :]))
        return add(*pieces)

    def to_prefix(self):
        return "(* " + " ".join(f.to_prefix() for f in self.factors) + ")"


class Quotient(Expression):
    _fields = ("numerator", "denominator")

    @property
    def children(self):
        return (self.numerator, self.denominator)

    def _apply(self, values, inputs):
        numerator, denominator = values
        if np.any(denominator == 0.0):
            text = self.to_prefix()  # cut, so that the error stays one short line
            raise EvaluationError(f"zero denominator in {text[:80]}{'…' * (len(text) > 80)}")
        return numerator / denominator

    def _rule(self, coordinate):
        a, b = self.numerator, self.denominator
        da, db = a._diff(coordinate), b._diff(coordinate)
        return quotient(add(mul(da, b), mul(NEG_ONE, a, db)), power(b, 2))

    def to_prefix(self):
        return f"(/ {self.numerator.to_prefix()} {self.denominator.to_prefix()})"


class Rational(NamedTuple):
    """An exact exponent; ``power`` keeps it in lowest terms, denominator > 0."""

    numerator: int
    denominator: int

    def __float__(self):
        return self.numerator / self.denominator


# Exponents with a correctly rounded numpy kernel; the rest go through np.power.
_POWER_KERNELS = {
    Rational(2, 1): np.square, Rational(-1, 1): np.reciprocal, Rational(1, 2): np.sqrt
}


class Power(Expression):
    """base raised to a fixed rational exponent."""

    _fields = ("base", "exponent")

    @property
    def children(self):
        return (self.base,)

    def _apply(self, values, inputs):
        (base,) = values
        q = self.exponent
        if q.denominator != 1 and np.any(base < 0.0):
            raise EvaluationError("fractional power of a negative base")
        if q.numerator < 0 and np.any(base == 0.0):
            raise EvaluationError("zero base with negative exponent")
        kernel = _POWER_KERNELS.get(q)
        return kernel(base) if kernel is not None else np.power(base, float(q))

    def _rule(self, coordinate):
        db = self.base._diff(coordinate)
        n, d = q = self.exponent
        return mul(Constant(float(q)), power(self.base, Rational(n - d, d)), db)

    def to_prefix(self):
        n, d = self.exponent
        return f"(pow {self.base.to_prefix()} {n if d == 1 else f'{n}/{d}'})"


class Exp(Expression):
    _fields = ("arg",)

    @property
    def children(self):
        return (self.arg,)

    def _apply(self, values, inputs):
        (arg,) = values
        out = np.exp(arg)
        if np.any(np.isinf(out) & np.isfinite(arg)):
            raise EvaluationError("exp overflow")
        return out

    def _rule(self, coordinate):
        return mul(exp(self.arg), self.arg._diff(coordinate))

    def to_prefix(self):
        return f"(exp {self.arg.to_prefix()})"


class Log(Expression):
    _fields = ("arg",)

    @property
    def children(self):
        return (self.arg,)

    def _apply(self, values, inputs):
        (arg,) = values
        if np.any(arg <= 0.0):
            raise EvaluationError(f"log of non-positive value {np.min(arg)}")
        return np.log(arg)

    def _rule(self, coordinate):
        return quotient(self.arg._diff(coordinate), self.arg)

    def to_prefix(self):
        return f"(ln {self.arg.to_prefix()})"


class Sin(Expression):
    _fields = ("arg",)

    @property
    def children(self):
        return (self.arg,)

    def _apply(self, values, inputs):
        return np.sin(values[0])

    def _rule(self, coordinate):
        return mul(cos(self.arg), self.arg._diff(coordinate))

    def to_prefix(self):
        return f"(sin {self.arg.to_prefix()})"


class Cos(Expression):
    _fields = ("arg",)

    @property
    def children(self):
        return (self.arg,)

    def _apply(self, values, inputs):
        return np.cos(values[0])

    def _rule(self, coordinate):
        return mul(NEG_ONE, sin(self.arg), self.arg._diff(coordinate))

    def to_prefix(self):
        return f"(cos {self.arg.to_prefix()})"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def chart_inputs(at) -> dict:
    """Input values by name from an input mapping, a PointSet or a list of
    ChartPoints.

    A mapping is copied as it is, extra keys (parameters) included.  A
    point set gives its own arrays and mass.  A point list becomes one
    array per coordinate; a mass shared by all the points stays a scalar.
    """
    if isinstance(at, Mapping):
        return dict(at)
    if isinstance(at, PointSet):
        return {name: getattr(at, name) for name in PointSet.__slots__}
    inputs = {
        name: np.array([getattr(p, name) for p in at], dtype=float) for name in COORDINATE_NAMES
    }
    masses = {p.m for p in at}
    inputs["m"] = masses.pop() if len(masses) == 1 else np.array([p.m for p in at], dtype=float)
    return inputs


def _schedule(roots):
    """Post-order of the DAG under ``roots``, each node once (by identity)
    with the ids of its children, and the number of consumers of each
    node; roots count one extra so their values outlive the walk."""
    order = []
    uses = Counter(map(id, roots))
    seen = set()
    stack = [(root, None) for root in reversed(roots)]
    while stack:
        node, keys = stack.pop()
        if keys is not None:
            order.append((node, keys))
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        children = node.children
        keys = tuple(map(id, children))
        uses.update(keys)
        stack.append((node, keys))
        stack.extend((child, None) for child in children if id(child) not in seen)
    return order, uses


def evaluate_many(roots, at) -> list:
    """Values of several expressions over a batch of chart points.

    ``at`` is a PointSet, a list of ChartPoints or a mapping of the names
    u, v, r, t and m to numbers or arrays that broadcast together (a sphere
    grid is a colatitude column times an azimuth row, with r, t, m scalars).  The
    mapping may hold further keys: the ``Parameter`` leaves of the roots,
    with their values.  Parameters shaped (member, 1) over point-shaped
    coordinates give every root the shape (member, point).  Each node of
    the shared DAG is computed once, constants stay scalars, and an
    intermediate value is dropped after its last consumer.  Returns one read-only array per root,
    shaped like the broadcast inputs.  Raises EvaluationError if any point
    hits a guard: a zero denominator, the log of a non-positive value, a
    fractional power of a negative base, a zero base with a negative
    exponent, or an overflowing exp.
    """
    inputs = chart_inputs(at)
    shape = np.broadcast_shapes(*(np.shape(value) for value in inputs.values()))
    order, uses = _schedule(roots)
    values = {}
    with np.errstate(all="ignore"):
        for node, keys in order:
            values[id(node)] = node._apply([values[key] for key in keys], inputs)
            for key in keys:
                uses[key] -= 1
                if not uses[key]:
                    del values[key]
    return [np.broadcast_to(values[id(root)], shape) for root in roots]


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
    return Constant(float(value))


def _iter_sum_terms(terms):
    for term in terms:
        term = _coerce(term)
        if isinstance(term, Sum):
            yield from _iter_sum_terms(term.terms)
        else:
            yield term


def add(*terms) -> Expression:
    flat = []
    constant_part = 0.0
    for term in _iter_sum_terms(terms):
        if isinstance(term, Constant):
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


def _iter_product_factors(factors):
    for factor in factors:
        factor = _coerce(factor)
        if isinstance(factor, Product):
            yield from _iter_product_factors(factor.factors)
        else:
            yield factor


def mul(*factors) -> Expression:
    flat = []
    constant_part = 1.0
    for factor in _iter_product_factors(factors):
        if isinstance(factor, Constant):
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
        raise ValueError("fractional power of a negative constant")
    return Power(base, q)


def exp(arg) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Constant):
        return const(math.exp(arg.value))
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


# ---------------------------------------------------------------------------
# Prefix (de)serialisation
# ---------------------------------------------------------------------------

_ATOMS = {"u": U, "v": V, "r": R, "t": T, "m": M}
_UNARY = {"exp": exp, "ln": log, "sin": sin, "cos": cos}


def parse_prefix(text: str) -> Expression:
    """Parse the prefix form produced by Expression.to_prefix."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty expression text")
    expression, position = _parse_tokens(tokens, 0)
    if position != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return expression


def _parse_tokens(tokens, position):
    token = tokens[position]
    if token == ")":
        raise ValueError("unexpected ')'")
    if token != "(":
        if token in _ATOMS:
            return _ATOMS[token], position + 1
        try:
            return const(float(token)), position + 1
        except ValueError as err:
            raise ValueError(f"bad atom {token!r}") from err
    head = tokens[position + 1]
    position += 2
    args = []
    while True:
        if position >= len(tokens):
            raise ValueError("unterminated expression")
        if tokens[position] == ")":
            position += 1
            break
        if head == "param":  # a name, not a subexpression
            args.append(tokens[position])
            position += 1
            continue
        if head == "pow" and len(args) == 1:  # p or p/q; power refuses q = 0
            numerator, slash, denominator = tokens[position].partition("/")
            args.append(Rational(int(numerator), int(denominator) if slash else 1))
            position += 1
            continue
        arg, position = _parse_tokens(tokens, position)
        args.append(arg)
    if head == "+":
        return add(*args), position
    if head == "*":
        return mul(*args), position
    if head == "/":
        if len(args) != 2:
            raise ValueError("'/' takes two arguments")
        return quotient(*args), position
    if head == "pow":
        if len(args) != 2:
            raise ValueError("'pow' takes a base and an exponent")
        return power(args[0], args[1]), position
    if head == "param":
        if len(args) != 1 or args[0] == "(":
            raise ValueError("'param' takes one name")
        return Parameter(args[0]), position
    if head in _UNARY:
        if len(args) != 1:
            raise ValueError(f"{head!r} takes one argument")
        return _UNARY[head](args[0]), position
    raise ValueError(f"unknown operator {head!r}")
