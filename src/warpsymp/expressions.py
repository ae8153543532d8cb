"""Scalar closed forms over the exterior cut chart.

Every tensor coefficient in this package is an immutable expression tree
over the chart coordinates (u, v, r, t) and the mass parameter, with exact
symbolic differentiation and guarded numeric evaluation.  Simplification is
deliberately shallow: constant folding plus the x+0, x*0, x*1 rules.
Identities between expressions are established numerically at sampled
chart points, never by tree canonicalisation.

All nodes are frozen dataclasses, so expressions are hashable, comparable
structurally, and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

COORDINATE_NAMES = ("u", "v", "r", "t")


class ChartDomainError(ValueError):
    """Raised for points outside the exterior cut chart."""


class EvaluationError(ArithmeticError):
    """Raised when a closed form hits a branch cut or a zero denominator."""


@dataclass(frozen=True)
class ChartPoint:
    """A point of the cut chart: colatitude u, azimuth v, areal radius r,
    static time t, and the mass parameter m of the ambient model.

    The guard keeps r away from the horizon by the relative margin
    ``horizon_margin``; the warp factor and its inverse powers blow up at
    r = 2m, so points closer than 2m(1 + margin) are rejected outright
    rather than silently producing garbage.
    """

    u: float
    v: float
    r: float
    t: float
    m: float
    horizon_margin: float = field(default=1e-6, compare=False, repr=False)

    def __post_init__(self):
        for name in ("u", "v", "r", "t", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ChartDomainError(f"coordinate {name} must be finite")
        if self.m <= 0.0:
            raise ChartDomainError(f"mass must be positive, got {self.m}")
        if not 0.0 < self.u < math.pi:
            raise ChartDomainError(f"colatitude u={self.u} outside (0, pi)")
        if not 0.0 < self.v < 2.0 * math.pi:
            raise ChartDomainError(f"azimuth v={self.v} outside (0, 2*pi)")
        if self.r < 2.0 * self.m * (1.0 + self.horizon_margin):
            raise ChartDomainError(
                f"radius r={self.r} violates the horizon guard "
                f"r >= 2m(1+{self.horizon_margin}) for m={self.m}"
            )

    def as_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "r": self.r, "t": self.t, "m": self.m}


class Expression:
    """Base class of all expression-tree nodes."""

    def evaluate(self, point: ChartPoint) -> float:
        """Evaluate at a chart point.

        Shared subtrees (common after differentiation) are evaluated once
        per call through an identity memo, so evaluation cost is linear in
        the size of the expression DAG rather than the unfolded tree.
        """
        return self._eval(point, {})

    def _eval(self, point: ChartPoint, memo: dict) -> float:
        key = id(self)
        value = memo.get(key)
        if value is None:
            value = self._compute(point, memo)
            memo[key] = value
        return value

    def _compute(self, point: ChartPoint, memo: dict) -> float:
        raise NotImplementedError

    def diff(self, coordinate: str) -> "Expression":
        """Exact partial derivative with respect to a chart coordinate."""
        if coordinate not in COORDINATE_NAMES:
            raise ValueError(f"unknown coordinate {coordinate!r}")
        return self._diff(coordinate)

    def _diff(self, coordinate: str) -> "Expression":
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


@dataclass(frozen=True)
class Constant(Expression):
    value: float

    def _compute(self, point, memo):
        return self.value

    def _diff(self, coordinate):
        return ZERO

    def to_prefix(self):
        return repr(self.value)


@dataclass(frozen=True)
class Coordinate(Expression):
    name: str

    def _compute(self, point, memo):
        return getattr(point, self.name)

    def _diff(self, coordinate):
        return ONE if coordinate == self.name else ZERO

    def to_prefix(self):
        return self.name


@dataclass(frozen=True)
class MassParameter(Expression):
    """The mass parameter of the ambient model; constant on the chart."""

    def _compute(self, point, memo):
        return point.m

    def _diff(self, coordinate):
        return ZERO

    def to_prefix(self):
        return "m"


@dataclass(frozen=True)
class Sum(Expression):
    terms: tuple

    def _compute(self, point, memo):
        return math.fsum(term._eval(point, memo) for term in self.terms)

    def _diff(self, coordinate):
        return add(*[term._diff(coordinate) for term in self.terms])

    def to_prefix(self):
        return "(+ " + " ".join(t.to_prefix() for t in self.terms) + ")"


@dataclass(frozen=True)
class Product(Expression):
    factors: tuple

    def _compute(self, point, memo):
        out = 1.0
        for factor in self.factors:
            out *= factor._eval(point, memo)
        return out

    def _diff(self, coordinate):
        pieces = []
        for i, factor in enumerate(self.factors):
            pieces.append(
                mul(*self.factors[:i], factor._diff(coordinate), *self.factors[i + 1 :])
            )
        return add(*pieces)

    def to_prefix(self):
        return "(* " + " ".join(f.to_prefix() for f in self.factors) + ")"


@dataclass(frozen=True)
class Quotient(Expression):
    numerator: Expression
    denominator: Expression

    def _compute(self, point, memo):
        den = self.denominator._eval(point, memo)
        if den == 0.0:
            raise EvaluationError(f"zero denominator in {self.to_prefix()}")
        return self.numerator._eval(point, memo) / den

    def _diff(self, coordinate):
        a, b = self.numerator, self.denominator
        da, db = a._diff(coordinate), b._diff(coordinate)
        return quotient(add(mul(da, b), mul(NEG_ONE, a, db)), power(b, 2))

    def to_prefix(self):
        return f"(/ {self.numerator.to_prefix()} {self.denominator.to_prefix()})"


@dataclass(frozen=True)
class Power(Expression):
    """base raised to a fixed rational exponent."""

    base: Expression
    exponent: Fraction

    def _compute(self, point, memo):
        base = self.base._eval(point, memo)
        q = self.exponent
        if q.denominator == 1:
            if base == 0.0 and q < 0:
                raise EvaluationError("zero base with negative exponent")
            return base ** q.numerator
        if base < 0.0:
            raise EvaluationError("fractional power of a negative base")
        if base == 0.0 and q < 0:
            raise EvaluationError("zero base with negative exponent")
        return base ** float(q)

    def _diff(self, coordinate):
        db = self.base._diff(coordinate)
        return mul(
            Constant(float(self.exponent)), power(self.base, self.exponent - 1), db
        )

    def to_prefix(self):
        q = self.exponent
        literal = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        return f"(pow {self.base.to_prefix()} {literal})"


@dataclass(frozen=True)
class Exp(Expression):
    arg: Expression

    def _compute(self, point, memo):
        try:
            return math.exp(self.arg._eval(point, memo))
        except OverflowError as err:
            raise EvaluationError("exp overflow") from err

    def _diff(self, coordinate):
        return mul(exp(self.arg), self.arg._diff(coordinate))

    def to_prefix(self):
        return f"(exp {self.arg.to_prefix()})"


@dataclass(frozen=True)
class Log(Expression):
    arg: Expression

    def _compute(self, point, memo):
        value = self.arg._eval(point, memo)
        if value <= 0.0:
            raise EvaluationError(f"log of non-positive value {value}")
        return math.log(value)

    def _diff(self, coordinate):
        return quotient(self.arg._diff(coordinate), self.arg)

    def to_prefix(self):
        return f"(ln {self.arg.to_prefix()})"


@dataclass(frozen=True)
class Sin(Expression):
    arg: Expression

    def _compute(self, point, memo):
        return math.sin(self.arg._eval(point, memo))

    def _diff(self, coordinate):
        return mul(cos(self.arg), self.arg._diff(coordinate))

    def to_prefix(self):
        return f"(sin {self.arg.to_prefix()})"


@dataclass(frozen=True)
class Cos(Expression):
    arg: Expression

    def _compute(self, point, memo):
        return math.cos(self.arg._eval(point, memo))

    def _diff(self, coordinate):
        return mul(NEG_ONE, sin(self.arg), self.arg._diff(coordinate))

    def to_prefix(self):
        return f"(cos {self.arg.to_prefix()})"


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
    base = _coerce(base)
    if isinstance(exponent, float):
        if not exponent.is_integer():
            raise TypeError("float exponents are not supported; use Fraction")
        exponent = int(exponent)
    q = Fraction(exponent)
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Constant):
        value = base.value
        if q.denominator == 1 and (value != 0.0 or q > 0):
            return const(value ** q.numerator)
        if value > 0.0:
            return const(value ** float(q))
        if value == 0.0 and q > 0:
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
        if head == "pow" and len(args) == 1:
            args.append(Fraction(tokens[position]))
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
    if head in _UNARY:
        if len(args) != 1:
            raise ValueError(f"{head!r} takes one argument")
        return _UNARY[head](args[0]), position
    raise ValueError(f"unknown operator {head!r}")
