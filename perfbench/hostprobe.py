"""Host-speed probe: fixed work in a fresh interpreter, independent of warpsymp.

    python3 hostprobe.py

The work is of the kind a warpsymp request does, in code of its own so that
no change to warpsymp changes it: it imports numpy, builds expression trees
of frozen dataclasses by symbolic differentiation, and evaluates them in
plain Python at many validated points with an identity memo.  It takes
0.5 to 1 s on a 2-vCPU x86-64 host, as that host's speed drifts.  Prints
one JSON line: the seconds from script start to the end of the imports, and
the seconds of the work.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy  # noqa: E402,F401

IMPORTED = time.perf_counter()


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        for name in ("x", "y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(name)


class Node:
    def evaluate(self, point):
        return self._eval(point, {})

    def _eval(self, point, memo):
        value = memo.get(id(self))
        if value is None:
            value = memo[id(self)] = self._compute(point, memo)
        return value


@dataclass(frozen=True)
class Const(Node):
    value: float

    def _compute(self, point, memo):
        return self.value

    def diff(self, name):
        return ZERO


@dataclass(frozen=True)
class Var(Node):
    name: str

    def _compute(self, point, memo):
        return getattr(point, self.name)

    def diff(self, name):
        return ONE if name == self.name else ZERO


@dataclass(frozen=True)
class Sum(Node):
    terms: tuple

    def _compute(self, point, memo):
        return math.fsum(term._eval(point, memo) for term in self.terms)

    def diff(self, name):
        return add(*[term.diff(name) for term in self.terms])


@dataclass(frozen=True)
class Product(Node):
    factors: tuple

    def _compute(self, point, memo):
        out = 1.0
        for factor in self.factors:
            out *= factor._eval(point, memo)
        return out

    def diff(self, name):
        return add(*[
            mul(*self.factors[:i], factor.diff(name), *self.factors[i + 1:])
            for i, factor in enumerate(self.factors)
        ])


@dataclass(frozen=True)
class Sin(Node):
    arg: Node

    def _compute(self, point, memo):
        return math.sin(self.arg._eval(point, memo))

    def diff(self, name):
        return mul(Cos(self.arg), self.arg.diff(name))


@dataclass(frozen=True)
class Cos(Node):
    arg: Node

    def _compute(self, point, memo):
        return math.cos(self.arg._eval(point, memo))

    def diff(self, name):
        return mul(Const(-1.0), Sin(self.arg), self.arg.diff(name))


ZERO, ONE = Const(0.0), Const(1.0)


def add(*terms):
    terms = tuple(t for t in terms if t != ZERO)
    return terms[0] if len(terms) == 1 else Sum(terms) if terms else ZERO


def mul(*factors):
    if any(f == ZERO for f in factors):
        return ZERO
    factors = tuple(f for f in factors if f != ONE)
    return factors[0] if len(factors) == 1 else Product(factors) if factors else ONE


def chain(scale, levels):
    """f and its first mixed partial derivatives, f_x, f_xy, f_xyx, ..."""
    x, y = Var("x"), Var("y")
    f = add(mul(Sin(mul(Const(scale), x, y)), Cos(x), y), mul(Sin(y), Sin(y), x))
    trees = [f]
    for level in range(levels):
        trees.append(trees[-1].diff("xy"[level % 2]))
    return trees


def work():
    for scale in (1.0, 2.0, 3.0, 4.0, 5.0):
        chain(scale, 8)
    points = [Point(0.1 + 0.9 * i / 250, 0.7 - 0.5 * i / 250) for i in range(250)]
    return math.fsum(tree.evaluate(point) for tree in chain(1.0, 6) for point in points)


if __name__ == "__main__":
    work()
    print(json.dumps({"import_s": IMPORTED - STARTED, "work_s": time.perf_counter() - IMPORTED}))
