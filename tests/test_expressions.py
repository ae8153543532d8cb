"""Expression trees: evaluation, exact differentiation, serialisation.

The differentiation oracle throughout is a central finite difference with
Richardson extrapolation, kept independent of the symbolic rules it checks.
"""

import itertools
import math
import operator
import random
import struct
import sys
import threading
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from warpsymp import expressions as ex
from warpsymp.expressions import (
    ChartDomainError,
    EvaluationError,
    Parameter,
    PointSet,
    evaluate_many,
)
from warpsymp.exterior import KForm, basis_vector
from warpsymp.hamiltonian import IntegralResult, QuadratureSpec
from warpsymp.prequantum import (
    Box,
    ConnectionPotential,
    Section,
    prequantum_operator,
    random_sections,
)
from warpsymp.sampling import SampleWindow
from warpsymp.spacetime import schwarzschild
from warpsymp.suite import GroupInputs, RunConfig


def warp_expression():
    """ln(1 - 2m/r)^(1/2), the closed form of the warp function."""
    factor = ex.ONE - ex.const(2.0) * ex.M / ex.R
    return ex.log(ex.power(factor, Fraction(1, 2)))


def central_difference(expression, point, coordinate, step):
    def shifted(delta):
        values = dict(point)
        values[coordinate] += delta
        return expression.evaluate(values)

    return (shifted(step) - shifted(-step)) / (2.0 * step)


def richardson(expression, point, coordinate, step=1e-5):
    coarse = central_difference(expression, point, coordinate, step)
    fine = central_difference(expression, point, coordinate, step / 2.0)
    return (4.0 * fine - coarse) / 3.0


class TestEvaluate:
    def test_warp_closed_form(self):
        """phi at (m=1, r=4) equals 0.5*ln(0.5)."""
        point = dict(u=1.0, v=1.0, r=4.0, t=0.0, m=1.0)
        assert warp_expression().evaluate(point) == pytest.approx(
            -0.34657359027997264, abs=1e-15
        )

    def test_constant(self):
        point = dict(u=0.5, v=0.5, r=10.0, t=3.0, m=1.0)
        assert ex.const(3).evaluate(point) == 3.0

    def test_sin_at_half_pi(self):
        point = dict(u=math.pi / 2, v=1.0, r=5.0, t=0.0, m=1.0)
        assert ex.sin(ex.U).evaluate(point) == 1.0

    def test_shared_subtree_evaluated_once(self):
        # evaluation visits each node of the DAG once, so a heavily shared
        # tree stays cheap; just confirm correctness on one
        shared = ex.sin(ex.U) * ex.R
        tree = shared
        for _ in range(12):
            tree = tree + tree
        point = dict(u=0.7, v=1.0, r=3.0, t=0.0, m=1.0)
        assert tree.evaluate(point) == pytest.approx(2**12 * math.sin(0.7) * 3.0)

    def test_zero_denominator_raises(self):
        expression = ex.quotient(ex.ONE, ex.T)
        point = dict(u=1.0, v=1.0, r=3.0, t=0.0, m=1.0)
        with pytest.raises(EvaluationError):
            expression.evaluate(point)

    def test_log_of_negative_raises(self):
        point = dict(u=1.0, v=1.0, r=3.0, t=-2.0, m=1.0)
        with pytest.raises(EvaluationError):
            ex.log(ex.T).evaluate(point)

    def test_fractional_power_of_negative_raises(self):
        point = dict(u=1.0, v=1.0, r=3.0, t=-2.0, m=1.0)
        with pytest.raises(EvaluationError):
            ex.power(ex.T, Fraction(1, 2)).evaluate(point)


def points_with_time(times):
    return {"u": 1.0, "v": 1.0, "r": 3.0, "t": times, "m": 1.0}


class TestBatchedGuards:
    """Each guard fires when a single point of a batch is bad."""

    @pytest.mark.parametrize(
        "expression, times",
        [
            (ex.quotient(ex.ONE, ex.T), (1.0, 0.0, 2.0)),
            (ex.log(ex.T), (1.0, -2.0, 3.0)),
            (ex.log(ex.T), (1.0, 0.0, 3.0)),
            (ex.power(ex.T, Fraction(1, 2)), (1.0, -2.0, 3.0)),
            (ex.power(ex.T, -1), (1.0, 0.0, 2.0)),
            (ex.power(ex.T, Fraction(-1, 2)), (1.0, 0.0, 2.0)),
            (ex.exp(ex.mul(ex.const(100.0), ex.T)), (1.0, 8.0, 2.0)),
        ],
        ids=["zero-denominator", "log-negative", "log-zero", "fractional-power-negative",
             "zero-base-integer-exponent", "zero-base-fractional-exponent", "exp-overflow"],
    )
    def test_one_bad_point_raises(self, expression, times):
        with pytest.raises(EvaluationError):
            evaluate_many([ex.ONE, expression], points_with_time(times))
        good = [t for t in times if t > 0 and t < 5.0]
        (values,) = evaluate_many([expression], points_with_time(good))
        assert np.all(np.isfinite(values))

    def test_exp_overflow_at_one_point(self):
        point = dict(u=1.0, v=1.0, r=3.0, t=800.0, m=1.0)
        with pytest.raises(EvaluationError):
            ex.exp(ex.T).evaluate(point)

    @pytest.mark.parametrize(
        "expression, times, message",
        [
            (ex.quotient(ex.ONE, ex.T), (1.0, 0.0), "zero denominator in (/ 1.0 t)"),
            (ex.log(ex.T), (1.0, -2.0, -3.0), "log of non-positive value -3.0"),
            (ex.log(ex.T), (math.nan, -2.0), "log of non-positive value nan"),
            (ex.power(ex.T, Fraction(1, 2)), (-2.0,), "fractional power of a negative base"),
            (ex.power(ex.T, -2), (0.0,), "zero base with negative exponent"),
            (ex.exp(ex.T), (800.0,), "exp overflow"),
        ],
    )
    def test_guard_messages(self, expression, times, message):
        inputs = {"u": 1.0, "v": 1.0, "r": 3.0, "t": list(times), "m": 1.0}
        with pytest.raises(EvaluationError) as excinfo:
            evaluate_many([expression], inputs)
        assert str(excinfo.value) == message

    def test_zero_denominator_message_is_cut(self):
        long = ex.add(*[ex.mul(ex.const(k + 0.5), ex.power(ex.R, k + 2)) for k in range(12)])
        tree = ex.quotient(long, ex.T)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate_many([tree], {"u": 1.0, "v": 1.0, "r": 3.0, "t": 0.0, "m": 1.0})
        assert str(excinfo.value) == f"zero denominator in {tree.to_prefix()[:80]}…"

    def test_infinities_and_nan_propagate(self):
        """Outside the guards, arithmetic follows IEEE rules where ``math``
        would raise: sin and cos of infinity are NaN, an overflowing power is
        infinite."""
        inputs = {"u": 1.0, "v": 1.0, "r": [1e200, -1e200, 2.0], "t": [math.inf, -math.inf, 1.0],
                  "m": 1.0}
        trees = [ex.sin(ex.T), ex.cos(ex.T), ex.power(ex.R, 3), ex.power(ex.R, 4), ex.exp(ex.T)]
        sines, cosines, cubes, fourths, exps = evaluate_many(trees, inputs)
        assert [math.isnan(x) for x in sines + cosines] == [True, True, False] * 2
        assert cubes == [math.inf, -math.inf, 8.0]
        assert fourths == [math.inf, math.inf, 16.0]
        assert exps == [math.inf, 0.0, math.e]


def two_sum_cascade(terms):
    """The sum of ``terms`` by the TwoSum cascade (Sum2 of Ogita, Rump &
    Oishi, SIAM J. Sci. Comput. 2005), the reference for points whose sum
    is not finite and for sums of zeros."""
    total, error = terms[0], 0.0
    for value in terms[1:]:
        partial = total + value
        excess = partial - total
        error = error + ((total - (partial - excess)) + (value - excess))
        total = partial
    return total + error


def per_point(operation, values):
    """The reference for the evaluator's binary kernels: ``operation``
    folded over ``values`` left to right, one point at a time.  A float x
    reads x at every point and a batch x reads x[k % len(x)] at point k;
    a float when every value is one."""
    sizes = [len(x) for x in values if not isinstance(x, float)]
    if not sizes:
        return reduce(operation, values)
    return [
        reduce(operation, [x if isinstance(x, float) else x[k % len(x)] for x in values])
        for k in range(max(sizes))
    ]


def bits(value):
    """A value's type and IEEE bits, so that the signs of zeros and NaN count."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return type(value), struct.pack(f"<{len(value)}d", *value)


def fsum_or_nan(x, y):
    """The sum of two terms under ``math.fsum``; NaN where it is not finite."""
    try:
        total = math.fsum((x, y))
    except (OverflowError, ValueError):
        return math.nan
    return total if math.isfinite(total) else math.nan


FINITE = [-0.0, 0.0, 1e200, -1e200, 3.0, -0.5, 5e-324, 0.1]
# NaNs of both signs, so that swapped operands would show in the bits
SPECIAL = FINITE + [math.nan, -math.nan, math.inf, -math.inf, 1.7976931348623157e308]


def operand_pool(times, zeros=True):
    """Each float of ``SPECIAL``, then an n-tuple (as a PointSet column is)
    and an n-list of finite floats, and a ``times`` * n list drawn from
    ``SPECIAL``.  Where ``zeros`` is False, each zero is 1e-300 of its sign."""
    if zeros:
        special, finite = SPECIAL, FINITE
    else:
        special, finite = ([x or math.copysign(1e-300, x) for x in xs] for xs in (SPECIAL, FINITE))
    rng = random.Random(times)
    long = [rng.choice(special) for _ in range(times * len(finite))]
    return [*special, tuple(finite), finite[::-1], long]


class TestBatchedEvaluation:
    @pytest.mark.parametrize("times", [2, 3])
    def test_product_chains_match_the_pairwise_fold(self, times):
        """``Product._apply`` gives the per-point left-to-right fold of its
        factors bit for bit, signs of zeros and NaN included, for factors
        drawn from three floats, two batches of n (one a tuple, as a
        PointSet column is) and a batch of ``times`` * n, in every order:
        leading and trailing floats, a float between batches, and batches
        meeting shorter and longer ones."""
        special = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 1e200, -1e200, 3.0]
        column = tuple(special[:6])
        short = [-math.nan, math.nan, 0.0, -1e200, -0.0, 1e-200]
        rng = random.Random(times)
        long = [rng.choice(special) for _ in range(times * len(short))]
        factors = [1e200, column, long, -0.0, short, -math.nan]
        for k in range(2, len(factors) + 1):
            for values in itertools.permutations(factors, k):
                node = ex.mul(*(Parameter(f"p{i}") for i in range(k)))
                expected = per_point(operator.mul, values)
                assert bits(node._apply(list(values), {})) == bits(expected), values

    @pytest.mark.parametrize("times", [2, 3])
    def test_quotients_and_two_term_sums_match_the_per_point_reference(self, times):
        """A quotient and a two-term sum give the per-point value of their
        operands bit for bit, the sum as ``math.fsum`` gives it (NaN where
        that is not finite), for every pair of operands from a float, an
        n-tuple, an n-list and a ``times`` * n list, in both orders.  No
        denominator holds a zero, which the guard refuses."""
        p, q = Parameter("p"), Parameter("q")
        divided, summed = ex.quotient(p, q), ex.add(p, q)
        for a, b in itertools.product(operand_pool(times), repeat=2):
            expected = per_point(fsum_or_nan, [a, b])
            assert bits(summed._apply([a, b], {})) == bits(expected), (a, b)
        for a, b in itertools.product(operand_pool(times), operand_pool(times, zeros=False)):
            expected = per_point(operator.truediv, [a, b])
            assert bits(divided._apply([a, b], {})) == bits(expected), (a, b)

    @pytest.mark.parametrize("times", [2, 3])
    def test_powers_match_the_per_point_reference(self, times):
        """A power gives x * x at the exponent 2, 1 / x at -1 and
        ``math.pow`` elsewhere, at each point, bit for bit; where a power
        overflows, infinity, negative for a negative base and an odd
        exponent.  Bases come from ``operand_pool``, without zeros at the
        exponent -1, which the guard refuses."""

        def generic(x, exponent):
            try:
                return math.pow(x, exponent)
            except OverflowError:
                return math.copysign(math.inf, x) if exponent % 2.0 == 1.0 else math.inf

        references = {2: lambda x, _: x * x, -1: lambda x, _: 1.0 / x, 3: generic, 4: generic}
        for exponent, reference in references.items():
            node = ex.power(Parameter("p"), exponent)
            for base in operand_pool(times, zeros=exponent > 0):
                expected = per_point(reference, [base, float(exponent)])
                assert bits(node._apply([base], {})) == bits(expected), (exponent, base)

    def test_a_root_reading_a_shorter_input_repeats_it_whole(self):
        """A root whose value is shorter than the batch, such as one that
        reads only v when u sets the batch, reads its floats repeated whole,
        as a list; a root constant over the batch reads its float at every
        point."""
        inputs = {"u": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], "v": (1.0, 2.0), "r": 3.0, "t": 0.0,
                  "m": 1.0}
        v, scaled, mass = evaluate_many([ex.V, ex.mul(ex.V, ex.R), ex.M], inputs)
        assert v == [1.0, 2.0] * 3 and type(v) is list
        assert scaled == [3.0, 6.0] * 3
        assert mass == [1.0] * 6

    @pytest.mark.parametrize(
        "terms",
        [
            (1.0, math.inf),
            (math.inf, -math.inf),
            (math.nan, 1.0),
            (1e308, 1e308),
            (1e308, 1e308, -1e308),
            (-0.0, -0.0),
            (0.0, -0.0),
            (-0.0, 0.0, -0.0),
        ],
    )
    def test_non_finite_and_zero_sums_match_the_cascade(self, terms):
        """A point with a term that is not finite, or whose sum overflows,
        reads NaN, and a sum of zeros reads 0.0, as the TwoSum cascade
        gives; the other points of the batch keep their sums."""
        params = [Parameter(f"p{k}") for k in range(len(terms))]
        tree = ex.add(*params)
        inputs = {"u": 1.0, "v": 1.0, "r": 3.0, "t": 0.0, "m": 1.0}
        batch = {p: [x, 0.1 * (k + 1)] for k, (p, x) in enumerate(zip(params, terms))}
        ((bad, good),) = evaluate_many([tree], {**inputs, **batch})
        ((alone,),) = evaluate_many([tree], {**inputs, **dict(zip(params, terms))})
        expected = two_sum_cascade(terms)
        assert repr(bad) == repr(alone) == repr(expected)
        assert math.isnan(expected) or expected == 0.0
        assert good == math.fsum(0.1 * (k + 1) for k in range(len(terms)))

    def test_two_term_sums_match_fsum(self, monkeypatch):
        """A two-term sum reads what ``math.fsum`` of its terms gives, bit for
        bit, at random and special floats, and NaN where that sum is not
        finite; a float term stands for itself at every point.  A batch whose
        sums are all finite and moderate never needs the per-point fsum."""
        rng = np.random.default_rng(22)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.1,
                   1e16, -1e16, 1.7976931348623157e308, -1.7976931348623157e308,
                   math.inf, -math.inf, math.nan]
        scales = 10.0 ** rng.integers(-300, 300, 200)
        randoms = [float(x) for x in rng.standard_normal(200) * scales]
        column = special + randoms + [-x for x in randoms[:50]]
        a = [x for x in column for _ in column]
        b = column * len(column)
        p, q = Parameter("p"), Parameter("q")
        tree = ex.add(p, q)
        inputs = {"u": 1.0, "v": 1.0, "r": 3.0, "t": 0.0, "m": 1.0}

        def summed(first, second):
            (sums,) = evaluate_many([tree], {**inputs, p: first, q: second})
            return list(map(repr, sums))

        assert summed(a, b) == list(map(repr, map(fsum_or_nan, a, b)))
        for x in special:
            assert summed(x, column) == [repr(fsum_or_nan(x, y)) for y in column]
        moderate = [(x, y) for x, y in zip(a, b) if abs(x + y) < 1e300]
        first, second = map(list, zip(*moderate))
        monkeypatch.setattr(ex, "_fsum", None)
        assert summed(first, second) == list(map(repr, map(fsum_or_nan, first, second)))

    def test_compensated_sum_recovers_the_small_term(self):
        # the products keep the large constants out of add()'s constant fold
        tree = ex.add(ex.mul(1e16, ex.M), ex.U, ex.mul(-1e16, ex.M))
        assert isinstance(tree, ex.Sum) and len(tree.terms) == 3
        points = PointSet([0.1, 0.7, 1.3, 3.0], [1.0] * 4, [3.0] * 4, [0.0] * 4, 1.0)
        (values,) = evaluate_many([tree], points)
        assert values == list(points.u)
        assert [tree.evaluate(p) for p in points] == list(points.u)

    def test_one_point_matches_batch_bit_for_bit(self, model, points):
        trees = [
            model.symplectic_form.coefficient((0, 1)),
            model.symplectic_form.coefficient((2, 3)).diff("r").diff("r"),
            model.volume_form.coefficient((0, 1, 2, 3)),
            ex.exp(ex.quotient(ex.T, ex.R)) + warp_expression().diff("r"),
        ]
        batched = evaluate_many(trees, points)
        for tree, values in zip(trees, batched):
            assert [tree.evaluate(p) for p in points] == values

    def test_grid_inputs_broadcast(self):
        """A grid is listed node by node; the azimuth row, shorter than the
        batch, stands for itself repeated for each colatitude."""
        tree = ex.mul(ex.sin(ex.U), ex.cos(ex.V), ex.R)
        u = [0.5, 0.5, 1.0, 1.0, 1.5, 1.5]
        v = [1.0, 2.0]
        (values,) = evaluate_many([tree], {"u": u, "v": v, "r": 4.0, "t": 0.0, "m": 1.0})
        assert len(values) == 6
        for k, value in enumerate(values):
            point = dict(u=u[k], v=v[k % 2], r=4.0, t=0.0, m=1.0)
            assert value == tree.evaluate(point)

    @pytest.mark.parametrize(
        "lengths", [{"u": 3, "v": 2}, {"u": 2, "v": 3, "r": 6}], ids=["2-3", "2-3-6"]
    )
    def test_input_lengths_must_divide_the_batch(self, lengths):
        """Each length must divide every longer one, not only the longest:
        u of length 2 and v of length 3 would pair up to 2 values before
        being tiled to 6."""
        inputs = {"u": 1.0, "v": 1.0, "r": 4.0, "t": 0.0, "m": 1.0}
        inputs.update((name, [1.0 + k for k in range(n)]) for name, n in lengths.items())
        with pytest.raises(ValueError, match="do not divide one another"):
            evaluate_many([ex.mul(ex.U, ex.V, ex.R)], inputs)

    def test_constant_root_has_the_batch_shape(self, points):
        assert evaluate_many([ex.const(2.5)], points)[0] == [2.5] * len(points)

    def test_derivative_is_cached_outside_the_fields(self):
        tree = warp_expression()
        first = tree.diff("r")
        assert tree.diff("r") is first
        assert tree._fields == ("arg",) and list(vars(tree)) == ["arg"]
        assert tree == warp_expression() and hash(tree) == hash(warp_expression())


def scalar_reference(node, point):
    """Plain math-module value of a tree at one point, kept apart from the
    package's evaluator."""
    if isinstance(node, ex.Constant):
        return node.value
    if isinstance(node, ex.Coordinate):
        return point[node.name]
    if isinstance(node, ex.MassParameter):
        return point["m"]
    if isinstance(node, ex.Sum):
        return math.fsum(scalar_reference(term, point) for term in node.terms)
    if isinstance(node, ex.Product):
        return math.prod(scalar_reference(factor, point) for factor in node.factors)
    if isinstance(node, ex.Quotient):
        return scalar_reference(node.numerator, point) / scalar_reference(node.denominator, point)
    if isinstance(node, ex.Power):
        return scalar_reference(node.base, point) ** float(node.exponent)
    unary = {ex.Exp: math.exp, ex.Log: math.log, ex.Sin: math.sin, ex.Cos: math.cos}
    return unary[type(node)](scalar_reference(node.arg, point))


# Trees whose every node is positive, so no step cancels and the relative
# error stays a few ulps per level: positive leaves, sums, products,
# quotients and powers of positives, and the transcendental functions
# shifted or squeezed to stay positive and bounded.
_positive_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=10.0).map(ex.const),
    st.sampled_from([ex.U, ex.V, ex.R, ex.T, ex.M]),
)


# the exponents of the random trees below
EXPONENTS = [Fraction(q) for q in ("-2", "-1", "-1/2", "1/3", "1/2", "3/2", "2")]


def _positive_combine(children):
    pairs = st.tuples(children, children)
    exponents = st.sampled_from(EXPONENTS)
    return st.one_of(
        pairs.map(lambda ab: ex.add(*ab)),
        pairs.map(lambda ab: ex.mul(*ab)),
        pairs.map(lambda ab: ex.quotient(*ab)),
        st.tuples(children, exponents).map(lambda bq: ex.power(*bq)),
        children.map(lambda e: ex.exp(ex.quotient(e, ex.ONE + e))),
        children.map(lambda e: ex.log(ex.const(2.0) + e)),
        children.map(lambda e: ex.const(2.0) + ex.sin(e)),
        children.map(lambda e: ex.const(2.0) + ex.cos(e)),
    )


positive_trees = st.recursive(_positive_leaf, _positive_combine, max_leaves=10)

# points as mappings, each with its own mass
positive_points = st.lists(
    st.fixed_dictionaries(
        {
            "u": st.floats(min_value=0.1, max_value=math.pi - 0.1),
            "v": st.floats(min_value=0.1, max_value=2 * math.pi - 0.1),
            "r": st.floats(min_value=3.5, max_value=40.0),
            "t": st.floats(min_value=0.1, max_value=5.0),
            "m": st.sampled_from([0.5, 1.0, 1.5]),
        }
    ),
    min_size=1,
    max_size=6,
)


def batch(points) -> dict:
    """The input mapping of a list of point mappings: one list per name."""
    return {name: [point[name] for point in points] for name in points[0]}


class TestEvaluatorProperty:
    @given(trees=st.lists(positive_trees, min_size=1, max_size=3), points=positive_points)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, trees, points):
        try:
            expected = [[scalar_reference(tree, p) for p in points] for tree in trees]
        except OverflowError:
            assume(False)
        assume(all(1e-250 < abs(x) < 1e250 for row in expected for x in row))
        batched = evaluate_many(trees, batch(points))
        for tree, values, row in zip(trees, batched, expected):
            np.testing.assert_allclose(values, row, rtol=1e-12, atol=0.0)
            assert [tree.evaluate(p) for p in points] == values

    @given(trees=st.lists(positive_trees, min_size=1, max_size=3), points=positive_points)
    @settings(max_examples=150, deadline=None)
    def test_nodes_match_numpy_ufuncs(self, trees, points):
        """Each node's values against numpy's ufuncs applied to its
        children's values: bit for bit for +, -, *, /, sqrt, squares and
        reciprocals, within 1 ulp for exp, log, sin, cos and other powers."""
        nodes = list({id(node): node for node in dag_nodes(trees)}.values())
        values = dict(zip(map(id, nodes), evaluate_many(nodes, batch(points))))
        for node in nodes:
            if not node.children:
                continue
            children = [np.array(values[id(child)]) for child in node.children]
            got, (expected, exact) = np.array(values[id(node)]), numpy_reference(node, children)
            if exact:
                assert got.tolist() == expected.tolist(), node
            else:
                assert np.all(np.abs(got - expected) <= np.spacing(np.abs(expected))), node


def dag_nodes(roots):
    """Every node under ``roots``, children first."""
    for root in roots:
        for child in root.children:
            yield from dag_nodes([child])
        yield root


def numpy_reference(node, children):
    """A node's values from numpy ufuncs on its children's values, and
    whether the package's kernel must match them bit for bit."""
    if isinstance(node, ex.Sum):
        # the correctly rounded sum at each point
        return np.array([math.fsum(row) for row in zip(*children)]), True
    if isinstance(node, ex.Product):
        out = children[0]
        for value in children[1:]:
            out = np.multiply(out, value)
        return out, True
    if isinstance(node, ex.Quotient):
        return np.divide(*children), True
    (arg,) = children
    if isinstance(node, ex.Power):
        exact = {(2, 1): np.square, (-1, 1): np.reciprocal, (1, 2): np.sqrt}
        if tuple(node.exponent) in exact:
            return exact[tuple(node.exponent)](arg), True
        return np.power(arg, float(node.exponent)), False
    unary = {ex.Exp: np.exp, ex.Log: np.log, ex.Sin: np.sin, ex.Cos: np.cos}
    return unary[type(node)](arg), False


def scheduled(*roots):
    """The nodes ``evaluate_many`` computes for ``roots``, in order."""
    return [node for node, _ in ex._schedule(list(roots))[0]]


class TestMergedSchedule:
    """The evaluator computes each node once per call, and nodes are
    interned: structurally equal nodes, built separately or not, are one
    node with one value."""

    INPUTS = {"u": [0.3, 0.7, 1.1], "v": 1.0, "r": [3.0, 4.0, 5.0], "t": 0.5, "m": 1.0}

    def test_equal_subtrees_are_scheduled_once(self):
        first = ex.mul(ex.sin(ex.U), ex.exp(ex.R))
        second = ex.mul(ex.sin(ex.U), ex.exp(ex.R))
        assert first is second
        tree = ex.quotient(first, ex.add(second, ex.T))
        # u, sin u, r, exp r, the product, t, the sum, the quotient
        assert len(scheduled(tree)) == 8
        merged = evaluate_many([tree, first, second], self.INPUTS)
        apart = [evaluate_many([root], self.INPUTS)[0] for root in (tree, first, second)]
        assert merged == apart and merged[1] == merged[2]

    def test_signed_zero_constants_keep_their_signs(self):
        zero, negative = ex.Constant(0.0), ex.Constant(-0.0)
        assert zero is not negative and ex.Constant(-0.0) is negative
        assert len(scheduled(zero, negative)) == 2
        # products built directly, since mul folds a zero factor to ZERO
        roots = [zero, negative, ex.Product((zero, ex.U)), ex.Product((negative, ex.U))]
        values = evaluate_many(roots, self.INPUTS)
        assert [[math.copysign(1.0, x) for x in column] for column in values] == [
            [1.0] * 3, [-1.0] * 3, [1.0] * 3, [-1.0] * 3
        ]

    def test_nan_constants_are_never_merged(self):
        """A NaN constant keys by its float object: NaN equals no float."""
        first, second = float("nan"), float("nan")
        nan = ex.Constant(first)
        assert ex.Constant(first) is nan and ex.Constant(second) is not nan
        assert len(scheduled(nan, ex.Constant(second), nan)) == 2

    def test_reordered_sums_keep_their_own_cascades(self):
        """The terms of a sum keep their order, so two orders of the same
        terms are two sums, each scheduled and summed on its own; both are
        correctly rounded, so they agree."""
        terms = [ex.mul(c, ex.M) for c in (3e10, 1e-15, -3e10, 9e-12, -5e-16)]
        forward, backward = ex.add(*terms), ex.add(*reversed(terms))
        sums = [node for node in scheduled(forward, backward) if isinstance(node, ex.Sum)]
        assert sums == [forward, backward]
        inputs = {**self.INPUTS, "u": 1.0, "r": 3.0}
        values = evaluate_many([forward, backward], inputs)
        assert values == [evaluate_many([root], inputs)[0] for root in (forward, backward)]
        assert values == [[9.000499999999999e-12], [9.000499999999999e-12]]

    def test_guard_in_a_duplicated_subtree_raises_its_own_message(self):
        """The walk visits the last operand first, so the log under the
        last term fails first, merged with its copy under the first term
        or not."""
        tree = ex.add(
            ex.mul(ex.log(ex.T), ex.U), ex.quotient(ex.ONE, ex.T), ex.mul(ex.log(ex.T), ex.R)
        )
        inputs = {**self.INPUTS, "t": [1.0, -2.0, 0.0]}
        with pytest.raises(EvaluationError, match=r"^log of non-positive value -2\.0$"):
            evaluate_many([tree], inputs)
        with pytest.raises(EvaluationError, match=r"^zero denominator in \(/ 1\.0 t\)$"):
            evaluate_many([ex.add(*tree.terms[:2])], {**inputs, "t": [1.0, 0.0, 2.0]})

    def test_equal_parameters_share_one_value(self):
        first, second = Parameter("p0"), Parameter("p0")
        tree = ex.add(ex.mul(first, ex.R), ex.mul(second, ex.U))
        nodes = scheduled(tree)
        assert sum(isinstance(node, Parameter) for node in nodes) == 1 and len(nodes) == 6
        (values,) = evaluate_many([tree], {**self.INPUTS, first: [2.0, -1.0, 0.5]})
        assert values == [2.0 * 3.0 + 2.0 * 0.3, -4.0 - 0.7, 0.5 * 5.0 + 0.5 * 1.1]

    @given(trees=st.lists(positive_trees, min_size=2, max_size=4), points=positive_points)
    @settings(max_examples=100, deadline=None)
    def test_merged_values_equal_each_root_alone(self, trees, points):
        try:
            apart = [evaluate_many([tree], batch(points))[0] for tree in trees]
        except (EvaluationError, OverflowError):
            assume(False)
        assert evaluate_many(trees, batch(points)) == apart


class TestInterning:
    """Building a node returns the one node of its structure."""

    INPUTS = {"u": [0.3, 0.7, 1.1], "v": 1.0, "r": 3.0, "t": 0.5, "m": 1.0}

    def test_constant_holds_a_float(self):
        two = ex.Constant(2)
        assert type(two.value) is float and two is ex.const(2.0)
        assert evaluate_many([two], self.INPUTS) == [[2.0] * 3]
        assert evaluate_many([ex.Product((two, ex.U))], self.INPUTS) == [[0.6, 1.4, 2.2]]

    @pytest.mark.parametrize("value", ["2", None, 1j], ids=["str", "None", "complex"])
    def test_constant_refuses_what_is_not_a_real_number(self, value):
        with pytest.raises(TypeError, match="^a constant takes an int or a float, not "):
            ex.Constant(value)

    MALFORMED = [
        (lambda: ex.Sum((ex.U, 2.0)), "Sum takes Expression terms, not float"),
        (lambda: ex.Product((ex.const(3.0), "u")), "Product takes Expression factors, not str"),
        (lambda: ex.Sum(ex.U), "Sum takes tuple terms, not Coordinate"),
        (lambda: ex.Quotient(ex.U, 2), "Quotient takes Expression denominator, not int"),
        (lambda: ex.Power(ex.U, 2), "Power takes Rational exponent, not int"),
        (lambda: ex.Power(2.0, ex.Rational(1, 2)), "Power takes Expression base, not float"),
        (lambda: ex.Sin(1.0), "Sin takes Expression arg, not float"),
        (lambda: ex.Coordinate(0), "Coordinate takes str name, not int"),
    ]

    @pytest.mark.parametrize(
        "build, message", MALFORMED, ids=[message.split(",")[0] for _, message in MALFORMED]
    )
    def test_malformed_node_is_refused(self, build, message):
        """A field value of the wrong type is refused where the node is
        built, naming its type, rather than failing later in evaluate_many,
        diff or str."""
        with pytest.raises(TypeError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("name", ["x", "m", "U", ""])
    def test_coordinate_refuses_a_name_outside_the_chart(self, name):
        """Only u, v, r and t are coordinates: another name is refused where
        the node is built, not folded to 0 by diff or left to a bare
        KeyError in evaluate_many."""
        with pytest.raises(ValueError, match=f"^unknown coordinate {name!r}$"):
            ex.Coordinate(name)

    def test_hand_built_nodes_are_the_folded_ones(self):
        assert ex.Power(ex.U, ex.Rational(2, 1)) is ex.power(ex.U, 2)
        assert ex.Sum((ex.U, ex.V)) is ex.add(ex.U, ex.V)

    def test_field_types_are_checked_only_where_a_node_is_built(self, monkeypatch):
        built = ex.Sum((ex.U, ex.R))
        monkeypatch.setattr(ex.Sum, "_kinds", (int,))
        assert ex.Sum((ex.U, ex.R)) is built
        with pytest.raises(TypeError, match="^Sum takes int terms, not tuple$"):
            ex.Sum((ex.U, ex.T, ex.R))

    def test_models_share_their_nodes_and_derivatives(self):
        first, second = schwarzschild(1.0), schwarzschild(1.0)
        pairs = list(zip(first.symplectic_form.terms, second.symplectic_form.terms))
        assert pairs and all(a is b for (_, a), (_, b) in pairs)
        (_, a), (_, b) = pairs[0]
        derivative = a.diff("r")
        assert b.diff("r") is derivative and b._derivatives["r"] is derivative

    def test_threads_building_one_tree_get_one_node(self):
        """Four threads build the same new nodes at once, switching often,
        and get the same objects."""
        barrier = threading.Barrier(4, timeout=30)
        built = []

        def build():
            barrier.wait()
            built.append([ex.mul(Parameter(f"race {k}"), ex.sin(ex.U)) for k in range(500)])

        threads = [threading.Thread(target=build) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(built) == 4
        assert all(node is first for nodes in built for node, first in zip(nodes, built[0]))


def one_point(u, v, r, t, m):
    """The one point of a one-point PointSet: its guards, then its mapping."""
    return PointSet([u], [v], [r], [t], m)[0]


class TestChartPoint:
    """The guards on one chart point, through a one-point PointSet."""

    def test_rejects_radius_inside_horizon(self):
        with pytest.raises(ChartDomainError, match="radius r=1.9 violates"):
            one_point(u=1.0, v=1.0, r=1.9, t=0.0, m=1.0)

    def test_rejects_radius_inside_guard_margin(self):
        with pytest.raises(ChartDomainError, match="horizon guard"):
            one_point(u=1.0, v=1.0, r=2.0 * (1.0 + 1e-9), t=0.0, m=1.0)

    @pytest.mark.parametrize("u", [0.0, math.pi, -0.1, 4.0])
    def test_rejects_colatitude_outside_open_interval(self, u):
        with pytest.raises(ChartDomainError, match="^colatitude"):
            one_point(u=u, v=1.0, r=5.0, t=0.0, m=1.0)

    @pytest.mark.parametrize("v", [0.0, 2 * math.pi, -0.5, 7.0])
    def test_rejects_azimuth_outside_open_interval(self, v):
        with pytest.raises(ChartDomainError, match="^azimuth"):
            one_point(u=1.0, v=v, r=5.0, t=0.0, m=1.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ChartDomainError, match="^mass must be positive"):
            one_point(u=1.0, v=1.0, r=5.0, t=0.0, m=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ChartDomainError, match="^coordinate r must be finite$"):
            one_point(u=1.0, v=1.0, r=math.inf, t=0.0, m=1.0)

    def test_immutable(self):
        """A point is a fresh mapping: editing it leaves its set as it was."""
        points = PointSet([1.0], [1.0], [5.0], [0.0], 1.0)
        point = points[0]
        point["r"] = 6.0
        assert points[0] == dict(u=1.0, v=1.0, r=5.0, t=0.0, m=1.0) and points.r == (5.0,)


# One (u, v, r, t, m) per guard that it breaks, and the guard's message.
HORIZON = "violates the horizon guard r >= 2m(1+1e-06) for m=1.0"
OFF_CHART = {
    "u-nan": ((math.nan, 1.0, 5.0, 0.0, 1.0), "coordinate u must be finite"),
    "u-zero": ((0.0, 1.0, 5.0, 0.0, 1.0), "colatitude u=0.0 outside (0, pi)"),
    "u-pi": ((math.pi, 1.0, 5.0, 0.0, 1.0), "colatitude u=3.141592653589793 outside (0, pi)"),
    "v-inf": ((1.0, math.inf, 5.0, 0.0, 1.0), "coordinate v must be finite"),
    "v-zero": ((1.0, 0.0, 5.0, 0.0, 1.0), "azimuth v=0.0 outside (0, 2*pi)"),
    "v-two-pi": (
        (1.0, 2.0 * math.pi, 5.0, 0.0, 1.0), "azimuth v=6.283185307179586 outside (0, 2*pi)"
    ),
    "r-inf": ((1.0, 1.0, math.inf, 0.0, 1.0), "coordinate r must be finite"),
    "r-nan": ((1.0, 1.0, math.nan, 0.0, 1.0), "coordinate r must be finite"),
    "r-inside-horizon": ((1.0, 1.0, 1.9, 0.0, 1.0), f"radius r=1.9 {HORIZON}"),
    "r-inside-margin": (
        (1.0, 1.0, 2.0 * (1.0 + 1e-9), 0.0, 1.0), f"radius r=2.000000002 {HORIZON}"
    ),
    "t-nan": ((1.0, 1.0, 5.0, math.nan, 1.0), "coordinate t must be finite"),
    "t-inf": ((1.0, 1.0, 5.0, -math.inf, 1.0), "coordinate t must be finite"),
    "m-nan": ((1.0, 1.0, 5.0, 0.0, math.nan), "coordinate m must be finite"),
    "m-zero": ((1.0, 1.0, 5.0, 0.0, 0.0), "mass must be positive, got 0.0"),
    "m-negative": ((1.0, 1.0, 5.0, 0.0, -1.0), "mass must be positive, got -1.0"),
}

GOOD = (1.2, 2.0, 4.0, -0.5)


def point_columns(*rows):
    return [list(column) for column in zip(*rows)]


def as_points(rows, mass):
    """The mappings a PointSet of ``rows`` and ``mass`` should give."""
    return [dict(zip("uvrtm", (*row, mass))) for row in rows]


class TestPointSet:
    def test_guards_hold_at_their_edges(self):
        rows = [(1e-300, 1e-300, 2.0 * (1.0 + 1e-6), 0.0), (math.pi - 1e-15, 6.28, 1e300, -1e300)]
        points = PointSet(*point_columns(*rows), 1.0)
        assert list(points) == as_points(rows, 1.0)

    @pytest.mark.parametrize("bad, message", OFF_CHART.values(), ids=OFF_CHART)
    def test_guard_raises_the_chart_point_message(self, bad, message):
        *coordinates, mass = bad
        rows = [GOOD, GOOD, tuple(coordinates), GOOD]
        with pytest.raises(ChartDomainError) as got:
            PointSet(*point_columns(*rows), mass)
        assert str(got.value) == message

    def test_first_bad_point_names_the_error(self):
        rows = [GOOD, (1.0, 1.0, 1.9, 0.0), (5.0, 1.0, 5.0, 0.0)]
        with pytest.raises(ChartDomainError, match="radius r=1.9"):
            PointSet(*point_columns(*rows), 1.0)

    def test_first_broken_guard_names_the_error(self):
        """A point that breaks several guards raises the first one's error,
        in the order finite, mass, colatitude, azimuth, horizon."""
        cases = [
            ((0.0, 9.0, 1.0, math.nan), 1.0, "coordinate t must be finite"),
            ((0.0, 9.0, 1.0, 0.0), -1.0, "mass must be positive, got -1.0"),
            ((0.0, 9.0, 1.0, 0.0), 1.0, "colatitude u=0.0 outside (0, pi)"),
            ((1.0, 9.0, 1.0, 0.0), 1.0, "azimuth v=9.0 outside (0, 2*pi)"),
        ]
        for row, mass, message in cases:
            with pytest.raises(ChartDomainError) as got:
                PointSet(*point_columns(GOOD, row), mass)
            assert str(got.value) == message

    def test_indexing_slicing_and_iteration(self):
        rows = [(0.5 + 0.1 * k, 1.0 + k, 3.0 + k, 0.25 * k) for k in range(5)]
        points = PointSet(*point_columns(*rows), 2.0 / 3.0)
        expected = as_points(rows, 2.0 / 3.0)
        assert points[3] == expected[3] and points[-1] == expected[-1]
        assert all(type(x) is float for x in points[0].values())
        part = points[1:4]
        assert isinstance(part, PointSet)
        assert list(part) == expected[1:4]
        assert list(points) == expected

    def test_integer_mass_is_stored_as_a_float(self):
        points = PointSet([0.5, 1.0], [1.0, 2.0], [3.0, 4.0], [0.0, 0.0], 1)
        assert type(points.m) is float and type(points[1:].m) is float
        (values,) = evaluate_many([ex.mul(ex.M, ex.R)], points)
        assert values == [3.0, 4.0]

    def test_arrays_are_read_only_copies(self):
        u = [0.5, 1.0]
        points = PointSet(u, [1.0, 2.0], [3.0, 4.0], [0.0, 0.0], 1.0)
        u[0] = 9.0
        assert points.u == (0.5, 1.0)
        for column in (points.u, points.v, points.r, points.t):
            assert type(column) is tuple and all(type(x) is float for x in column)
            with pytest.raises(TypeError):
                column[0] = 1.5

    def test_evaluates_as_its_chart_points(self, model):
        rows = [(0.5 + 0.2 * k, 1.0 + k, 3.0 + k, 0.1 * k) for k in range(6)]
        points = PointSet(*point_columns(*rows), 1.0)
        inputs = ex.chart_inputs(points)
        assert inputs["m"] == 1.0
        assert inputs["r"] is points.r
        tree = model.symplectic_form.coefficient((2, 3)).diff("r")
        (batched,) = evaluate_many([tree], points)
        assert batched == [tree.evaluate(point) for point in points]


def _group_inputs(model):
    return GroupInputs(RunConfig(mass=model.mass))


# A builder over the model and a field name, for a node and for each record
# that was a frozen dataclass.
IMMUTABLE = [
    (lambda model: ex.sin(ex.U), "arg"),
    (lambda model: KForm.zero(1), "degree"),
    (lambda model: basis_vector(0), "components"),
    (lambda model: model.metric, "diagonal"),
    (lambda model: IntegralResult(1.0, 0.0), "value"),
    (lambda model: QuadratureSpec(), "n_u"),
    (lambda model: SampleWindow(), "r_margin"),
    (lambda model: PointSet([1.0], [1.0], [3.0], [0.0], 1.0), "m"),
    (lambda model: ConnectionPotential.monopole(model), "theta"),
    (lambda model: Section(ex.ONE, ex.ZERO), "re"),
    (lambda model: prequantum_operator(ex.R, model, ConnectionPotential.monopole(model)), "hbar"),
    (lambda model: random_sections(1.0, 2, 0), "draws"),
    (lambda model: Box.default(1.0), "r"),
    (_group_inputs, "model"),
]


@pytest.mark.parametrize("build, field", IMMUTABLE, ids=[f for _, f in IMMUTABLE])
def test_assigning_a_field_raises(build, field, model):
    record = build(model)
    with pytest.raises(AttributeError):
        setattr(record, field, None)


class TestDifferentiate:
    def test_warp_radial_derivative_value(self):
        """d/dr of the warp at (m=1, r=4) is (m/r^2)/(1-2m/r) = 0.125."""
        point = dict(u=1.0, v=1.0, r=4.0, t=0.0, m=1.0)
        derivative = warp_expression().diff("r")
        assert derivative.evaluate(point) == pytest.approx(0.125, abs=1e-13)
        assert derivative.evaluate(point) == pytest.approx(
            richardson(warp_expression(), point, "r", step=1e-3), abs=1e-11
        )

    def test_independent_coordinates(self):
        assert ex.is_zero(ex.R.diff("u"))
        assert ex.is_zero(ex.const(7).diff("r"))
        assert ex.is_zero(ex.M.diff("r"))

    def test_sin_derivative(self):
        point = dict(u=0.3, v=1.0, r=4.0, t=0.0, m=1.0)
        derivative = ex.sin(ex.U).diff("u")
        assert derivative.evaluate(point) == pytest.approx(0.955336489125606, abs=1e-14)

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ValueError):
            ex.R.diff("x")

    def test_quotient_derivative_stays_in_range(self):
        """d/dr (m/r^2) divides twice by r^2 and never forms r^4, which
        overflows at r = 3e80: the derivative is -2m/r^3, not -0."""
        point = dict(u=1.0, v=1.0, r=3e80, t=0.0, m=1e80)
        value = ex.quotient(ex.M, ex.power(ex.R, 2)).diff("r").evaluate(point)
        assert math.isfinite(value) and value != 0.0
        assert value == pytest.approx(-2.0 * 1e80 / 3e80**3, rel=4 * np.finfo(float).eps)

    def test_product_rule_builds_the_unskipped_trees(self, monkeypatch):
        """The product rule skips the factors whose derivative folds to
        zero; the full rule, every piece built, gives the same trees for the
        symplectic form and the inverse metric of a fresh model."""

        def derivatives(model):
            roots = [c for _, c in model.symplectic_form.terms]
            roots += model.metric.inverse
            return [root.diff(c).to_prefix() for root in roots for c in ex.COORDINATE_NAMES]

        skipping = derivatives(schwarzschild(1.0))

        def unskipped(product, coordinate):
            factors = product.factors
            return ex.add(
                *[
                    ex.mul(*factors[:i], factor._diff(coordinate), *factors[i + 1 :])
                    for i, factor in enumerate(factors)
                ]
            )

        monkeypatch.setattr(ex.Product, "_rule", unskipped)
        assert derivatives(schwarzschild(1.0)) == skipping

    @pytest.mark.parametrize(
        "expression",
        [
            warp_expression(),
            ex.sin(ex.U) * ex.power(ex.R, 2) + ex.exp(ex.quotient(ex.T, ex.R)),
            ex.quotient(ex.cos(ex.V), ex.ONE + ex.power(ex.U, 2)),
            ex.power(ex.ONE + ex.power(ex.sin(ex.T), 2), Fraction(-3, 2)),
        ],
    )
    @pytest.mark.parametrize("coordinate", ["u", "v", "r", "t"])
    def test_second_order_convergence(self, expression, coordinate):
        """|symbolic - central difference| shrinks at observed order >= 1.9."""
        point = dict(u=0.8, v=2.0, r=5.0, t=1.3, m=1.0)
        exact = expression.diff(coordinate).evaluate(point)
        errors = []
        for step in (1e-2, 5e-3, 2.5e-3):
            errors.append(abs(central_difference(expression, point, coordinate, step) - exact))
        if max(errors) < 1e-13:  # derivative identically zero along this axis
            return
        order = math.log(errors[0] / errors[2]) / math.log(4.0)
        assert order > 1.9


# Random small trees for property tests.  Leaves and operations are chosen
# so evaluation stays total on the chart: logs only see strictly positive
# arguments, denominators are bounded away from zero.
_leaf = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0).map(ex.const),
    st.sampled_from([ex.U, ex.V, ex.R, ex.T, ex.M]),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ex.add(*ab)),
        st.tuples(children, children).map(lambda ab: ex.mul(*ab)),
        children.map(ex.sin),
        children.map(ex.cos),
        children.map(lambda e: ex.power(ex.ONE + ex.power(e, 2), Fraction(1, 2))),
        children.map(lambda e: ex.log(ex.const(1.5) + ex.power(e, 2))),
        children.map(lambda e: ex.quotient(e, ex.const(2.0) + ex.power(e, 2))),
        children.map(lambda e: ex.exp(ex.quotient(e, ex.const(30.0)))),
    )


expression_trees = st.recursive(_leaf, _combine, max_leaves=6)

chart_points = st.builds(
    dict,
    u=st.floats(min_value=0.3, max_value=math.pi - 0.3),
    v=st.floats(min_value=0.3, max_value=2 * math.pi - 0.3),
    r=st.floats(min_value=2.5, max_value=30.0),
    t=st.floats(min_value=-5.0, max_value=5.0),
    m=st.just(1.0),
)


class TestDerivativeProperty:
    @given(expression=expression_trees, point=chart_points, coordinate=st.sampled_from(["u", "v", "r", "t"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_richardson_extrapolation(self, expression, point, coordinate):
        exact = expression.diff(coordinate).evaluate(point)
        approx = richardson(expression, point, coordinate, step=1e-4)
        scale = max(1.0, abs(exact))
        assert abs(exact - approx) <= 1e-7 * scale


# One node of each class: its prefix text and its operand fields, in order.
PREFIX_FORMS = [
    (ex.add(ex.U, ex.T), "(+ u t)", (ex.U, ex.T)),
    (ex.mul(2.0, ex.R), "(* 2.0 r)", (ex.const(2.0), ex.R)),
    (ex.quotient(ex.M, ex.R), "(/ m r)", (ex.M, ex.R)),
    (ex.exp(ex.U), "(exp u)", (ex.U,)),
    (ex.log(ex.U), "(ln u)", (ex.U,)),
    (ex.sin(ex.U), "(sin u)", (ex.U,)),
    (ex.cos(ex.V), "(cos v)", (ex.V,)),
    (ex.power(ex.R, Fraction(1, 2)), "(pow r 1/2)", (ex.R,)),
    (Parameter("p0"), "(param p0)", ()),
    (ex.const(-0.0), "-0.0", ()),
    (ex.M, "m", ()),
    (ex.T, "t", ()),
]


class TestPrefixForm:
    @pytest.mark.parametrize(
        "node, text, operands", PREFIX_FORMS, ids=[type(node).__name__ for node, *_ in PREFIX_FORMS]
    )
    def test_pinned_text_and_operands(self, node, text, operands):
        assert node.to_prefix() == str(node) == text
        assert type(node.children) is tuple
        assert len(node.children) == len(operands)
        assert all(a is b for a, b in zip(node.children, operands))

    def test_every_node_class_is_pinned(self):
        assert {type(node) for node, *_ in PREFIX_FORMS} == set(ex.Expression.__subclasses__())

    def test_golden_warp(self):
        golden = "(ln (pow (+ (* -1.0 (/ (* 2.0 m) r)) 1.0) 1/2))"
        assert warp_expression().to_prefix() == golden


class TestExponents:
    @pytest.mark.parametrize(
        "exponent, expected",
        [
            (Fraction(2, 4), (1, 2)),
            (ex.Rational(-2, -4), (1, 2)),
            (ex.Rational(3, -6), (-1, 2)),
            (2.0, (2, 1)),
            (-1, (-1, 1)),
        ],
    )
    def test_power_keeps_lowest_terms(self, exponent, expected):
        node = ex.power(ex.R, exponent)
        assert type(node.exponent) is ex.Rational
        assert node.exponent == expected

    def test_non_integer_float_is_refused(self):
        with pytest.raises(TypeError):
            ex.power(ex.R, 0.5)

    def test_zero_denominator_is_refused(self):
        with pytest.raises(ValueError):
            ex.power(ex.R, ex.Rational(1, 0))

    @pytest.mark.parametrize("exponent", EXPONENTS, ids=str)
    def test_float_is_the_fraction_float(self, exponent):
        assert float(ex.power(ex.R, exponent).exponent) == float(exponent)

    def test_float_divides_as_fraction_does(self):
        for n in range(-40, 41):
            for d in range(1, 41):
                assert float(ex.Rational(n, d)) == float(Fraction(n, d))

    @pytest.mark.parametrize("text", ["1/2", "-3/2", "1/3", "2"])
    def test_prefix_round_trip(self, text):
        """The exponent the text names prints back as that text."""
        node = ex.power(ex.R, Fraction(text))
        assert node.exponent == (Fraction(text).numerator, Fraction(text).denominator)
        assert node.to_prefix() == f"(pow r {text})"

    @pytest.mark.parametrize(
        "exponent, reference",
        [(2, np.square), (-1, np.reciprocal), (Fraction(1, 2), np.sqrt)],
        ids=["2-square", "-1-reciprocal", "exponent2-sqrt"],
    )
    def test_kernel_exponents_find_their_kernel(self, exponent, reference):
        """The kernel is found under the reduced exponent, and computes what
        numpy's correctly rounded ufunc does, for a batch and for a float."""
        kernel = ex._POWER_KERNELS[ex.power(ex.R, exponent).exponent]
        batch = [0.1 * k + 1e-3 for k in range(1, 200)] + [1e-300, 3e300, math.inf]
        with np.errstate(over="ignore"):
            expected = reference(np.array(batch)).tolist()
        assert kernel(batch, float(exponent)) == expected
        assert kernel(batch[7], float(exponent)) == reference(batch[7])


class TestParameter:
    def test_derivative_is_zero(self):
        for coordinate in ex.COORDINATE_NAMES:
            assert Parameter("p0").diff(coordinate) is ex.ZERO

    def test_value_broadcasts_against_points(self):
        """One value per (member, point) pair, member by member; the point
        coordinates stand for themselves repeated for each member."""
        p = Parameter("p0")
        tree = ex.add(ex.mul(ex.R, p), ex.U)
        r = [3.0, 4.0, 5.0]
        u = [0.5, 1.0, 1.5]
        members = [2.0, -0.25]
        inputs = {"u": u, "v": 1.0, "r": r, "t": 0.0, "m": 1.0, p: [c for c in members for _ in r]}
        (values,) = evaluate_many([tree], inputs)
        assert values == [x * c + y for c in members for x, y in zip(r, u)]

    def test_prefix_round_trip(self):
        p = Parameter("p0")
        assert p.to_prefix() == "(param p0)"
        tree = ex.mul(ex.R, p, ex.cos(ex.V))
        assert tree.to_prefix() == "(* r (param p0) (cos v))"


class TestFoldingRules:
    def test_additive_zero_dropped(self):
        assert (ex.R + ex.const(0)) is ex.R

    def test_multiplicative_one_dropped(self):
        assert (ex.R * ex.const(1)) is ex.R

    def test_multiplication_by_zero_collapses(self):
        assert ex.is_zero(ex.sin(ex.U) * ex.const(0))

    def test_exp_of_log_folds(self):
        x = ex.power(ex.add(ex.ONE, ex.quotient(ex.M, ex.R)), ex.Rational(1, 2))
        assert ex.exp(ex.log(x)) is x

    def test_constants_fold(self):
        assert ex.add(ex.const(2), ex.const(3)).value == 5.0
        assert ex.mul(ex.const(2), ex.const(3)).value == 6.0
        assert ex.power(ex.const(2), 10).value == 1024.0

    def test_hand_built_nests_are_expanded(self):
        """add and mul take nested sums and products depth first, left to
        right, however deep a nest built by hand goes."""
        two, three = ex.Constant(2.0), ex.Constant(3.0)
        assert ex.mul(ex.Product((ex.U, ex.Product((ex.V, two))))) is ex.Product((two, ex.U, ex.V))
        nest = ex.Product((ex.Product((ex.U, three)), ex.V, two))
        assert ex.mul(ex.R, nest) is ex.Product((ex.Constant(6.0), ex.R, ex.U, ex.V))
        nest = ex.Sum((ex.U, ex.Sum((two, ex.Sum((ex.V, three))))))
        assert ex.add(nest, ex.R) is ex.Sum((ex.U, ex.V, ex.R, ex.Constant(5.0)))

    def test_constants_amid_the_operands_fold_in_order(self):
        """Constants inside a nested node fold where they stand: folding the
        nested node's constants first would give 2.0 and inf here."""
        nest = ex.Sum((ex.U, ex.Constant(1e16), ex.V, ex.Constant(-1e16)))
        # ((1 + 1e16) - 1e16) + 1 = 1, as 1e16 + 1 rounds to 1e16
        assert ex.add(ex.ONE, nest, ex.ONE) is ex.Sum((ex.U, ex.V, ex.ONE))
        nest = ex.Product((ex.U, ex.Constant(1e200), ex.V, ex.Constant(1e200)))
        tiny = ex.Constant(1e-200)
        assert ex.mul(tiny, nest, tiny) is ex.Product((ex.U, ex.V))

    def test_division_by_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            ex.quotient(ex.R, ex.const(0))

    @pytest.mark.parametrize("build", [lambda: ex.power(ex.const(0.0), -1)], ids=["power"])
    def test_zero_constant_to_a_negative_power_rejected(self, build):
        with pytest.raises(ValueError, match="zero constant raised to a negative power"):
            build()

    def test_no_deep_rewriting(self):
        # sin^2 + cos^2 must stay a tree; identities are numeric facts here
        tree = ex.power(ex.sin(ex.U), 2) + ex.power(ex.cos(ex.U), 2)
        assert not isinstance(tree, ex.Constant)
