"""Worst-point selection over batched magnitudes."""

import math

import numpy as np
import pytest

from warpsymp import expressions as ex
from warpsymp.expressions import PointSet
from warpsymp.exterior import wedge
from warpsymp.reports import GROUP_ROWS, least_point, peak, residual_results, worst_point
from warpsymp.sampling import sample_points
from warpsymp.spacetime import schwarzschild

POINTS = [dict(u=0.5 + 0.1 * k, v=1.0, r=3.0 + k, t=0.0, m=1.0) for k in range(4)]


def flat(rows):
    """Rows of one value per point, read row by row."""
    return [x for row in rows for x in row]


def loop_reference(rows, points, start=0.0):
    """The loop scan the helper must agree with: sections outer, points inner."""
    worst, where = start, None
    for row in rows:
        for point, magnitude in zip(points, row):
            if magnitude > worst:
                worst, where = magnitude, point
    return worst, where


class TestWorstPoint:
    def test_first_of_tied_maxima_wins(self):
        magnitudes = flat([[1.0, 3.0, 2.0, 3.0], [3.0, 0.0, 0.0, 3.0]])
        assert worst_point(magnitudes, POINTS) == (3.0, POINTS[1])

    def test_section_order_comes_first(self):
        # the tie at point 0 of section 1 loses to point 3 of section 0
        magnitudes = flat([[0.0, 0.0, 0.0, 5.0], [5.0, 0.0, 0.0, 0.0]])
        assert worst_point(magnitudes, POINTS) == (5.0, POINTS[3])

    def test_all_zero_gives_no_point(self):
        # a residual that is 0 everywhere names its first point
        assert worst_point([0.0] * 12, POINTS) == (0.0, POINTS[0])

    def test_nan_never_selected(self):
        magnitudes = [math.nan, 2.0, math.nan, 1.0]
        assert worst_point(magnitudes, POINTS) == (2.0, POINTS[1])
        assert worst_point([math.nan] * 4, POINTS) == (0.0, None)

    def test_infinity_is_a_maximum(self):
        magnitudes = [1.0, math.inf, math.inf, 2.0]
        assert worst_point(magnitudes, POINTS) == (math.inf, POINTS[1])

    def test_point_axis_first(self):
        # rows are points: the largest value of each row, then the first
        # point with the largest of those
        rows = [[0.0, 1.0], [4.0, 0.0], [0.0, 4.0], [2.0, 2.0]]
        assert worst_point([max(row) for row in rows], POINTS) == (4.0, POINTS[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_on_coarse_random_values(self, seed):
        rng = np.random.default_rng(seed)
        magnitudes = rng.integers(0, 4, size=(3, 4)).astype(float)
        magnitudes[rng.random((3, 4)) < 0.2] = math.nan
        rows = magnitudes.tolist()
        assert worst_point(flat(rows), POINTS) == loop_reference(rows, POINTS)

    def test_point_set_gives_the_list_answer(self):
        point_set = PointSet(*([p[name] for p in POINTS] for name in "uvrt"), 1.0)
        magnitudes = flat([[1.0, 3.0, 2.0, 3.0], [3.0, 0.0, 5.0, 3.0]])
        assert worst_point(magnitudes, point_set) == (5.0, POINTS[2])


class TestLeastPoint:
    def test_first_minimum_in_point_order(self):
        magnitudes = flat([[3.0, 1.0, 2.0, 1.0], [1.0, 4.0, 0.5, 0.5]])
        assert least_point(magnitudes, POINTS) == (0.5, POINTS[2])
        assert least_point([2.0, 1.0, 1.0, 3.0], POINTS) == (1.0, POINTS[1])

    def test_nan_never_selected(self):
        magnitudes = [math.nan, 2.0, math.nan, 1.5]
        assert least_point(magnitudes, POINTS) == (1.5, POINTS[3])
        assert least_point([math.nan] * 4, POINTS) == (0.0, None)
        assert least_point([], POINTS) == (0.0, None)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        magnitudes = rng.integers(0, 4, size=8).astype(float)
        magnitudes[rng.random(8) < 0.2] = math.nan
        least, where = math.inf, None
        for k, magnitude in enumerate(magnitudes.tolist()):
            if magnitude < least:
                least, where = magnitude, POINTS[k % 4]
        assert least_point(magnitudes.tolist(), POINTS) == (least, where)


class TestResidualResults:
    def test_a_rootless_residual_names_the_first_point(self):
        # flux ^ flux folds to the empty 4-form: a residual with no root
        flux = schwarzschild(1.0).flux_form
        square = wedge(flux, flux)
        assert square.terms == ()
        points = sample_points(1.0, 10, 5)
        check = GROUP_ROWS["omega"][0]
        (result,) = residual_results({check: (dict(square.terms).values(), None)}, points, 5)
        assert (result.worst_error, result.worst_point) == (0.0, points[0])
        assert result.passed and result.threshold == check.tolerance and result.seed == 5

    def test_each_check_takes_the_largest_magnitude_of_its_roots(self):
        points = PointSet([0.9, 1.0, 1.75], [1.0] * 3, [3.0, 4.0, 5.0], [0.0] * 3, 1.0)
        first, second = GROUP_ROWS["observer"]
        residuals = {
            first: ([ex.U - ex.const(1.0), ex.const(0.25)], None),
            second: ([ex.const(2.0) - ex.R], 10.0),
        }
        one, two = residual_results(residuals, points, None)
        assert (one.check, one.worst_error, one.worst_point) == (first, 0.75, points[2])
        assert (two.check, two.worst_error, two.worst_point) == (second, 3.0, points[2])
        assert (one.threshold, two.threshold) == (first.tolerance, 10.0)


def test_peak_passes_over_nan_and_floors_at_zero():
    assert peak([math.nan, 2.0, 1.0, math.nan]) == 2.0
    assert peak([math.nan, -1.0]) == 0.0
    assert peak([]) == 0.0


class TestVerdict:
    """A result's verdict follows from its catalogue row and its threshold."""

    def test_a_result_is_judged_by_the_threshold_it_is_given(self):
        (below,) = GROUP_ROWS["gradient"]  # passes when worst < threshold
        above = GROUP_ROWS["foliation"][0]  # passes when worst > threshold
        cases = ((below, 1e-8, 1e-9, 1e-7), (above, 1e-7, 1e-6, 1e-8))
        for check, worst, failing, passing in cases:
            result = check.judged(worst, threshold=failing)
            assert not result.passed and not result.to_dict()["pass"]
            result.threshold = passing
            assert result.passed and result.to_dict()["pass"]
            result.threshold = math.nan
            assert not result.passed

    def test_a_fixed_row_keeps_its_groups_verdict(self):
        fixed = GROUP_ROWS["symplectic"][-1]
        for verdict in (True, False):
            result = fixed.judged(0.0, verdict=verdict)
            for threshold in (0.0, 1.0, math.inf):
                result.threshold = threshold
                assert result.passed is verdict
