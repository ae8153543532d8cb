"""Worst-point selection over batched magnitudes."""

import math

import numpy as np
import pytest

from warpsymp.expressions import ChartPoint, PointSet
from warpsymp.reports import peak, worst_point

POINTS = [ChartPoint(u=0.5 + 0.1 * k, v=1.0, r=3.0 + k, t=0.0, m=1.0) for k in range(4)]


def loop_reference(rows, points, start=0.0):
    """The loop scan the helper must agree with: sections outer, points inner."""
    worst, where = start, None
    for row in rows:
        for point, magnitude in zip(points, row):
            if magnitude > worst:
                worst, where = magnitude, point
    return worst, (where.as_dict() if where is not None else None)


class TestWorstPoint:
    def test_first_of_tied_maxima_wins(self):
        magnitudes = np.array([[1.0, 3.0, 2.0, 3.0], [3.0, 0.0, 0.0, 3.0]])
        assert worst_point(magnitudes, POINTS) == (3.0, POINTS[1].as_dict())

    def test_section_order_comes_first(self):
        # the tie at point 0 of section 1 loses to point 3 of section 0
        magnitudes = np.array([[0.0, 0.0, 0.0, 5.0], [5.0, 0.0, 0.0, 0.0]])
        assert worst_point(magnitudes, POINTS) == (5.0, POINTS[3].as_dict())

    def test_all_zero_gives_no_point(self):
        assert worst_point(np.zeros((3, 4)), POINTS) == (0.0, None)

    def test_start_value_below_zero_selects_first_point(self):
        assert worst_point(np.zeros(4), POINTS, start=-1.0) == (0.0, POINTS[0].as_dict())

    def test_nan_never_selected(self):
        magnitudes = np.array([math.nan, 2.0, math.nan, 1.0])
        assert worst_point(magnitudes, POINTS) == (2.0, POINTS[1].as_dict())
        assert worst_point(np.full(4, math.nan), POINTS) == (0.0, None)

    def test_infinity_is_a_maximum(self):
        magnitudes = np.array([1.0, math.inf, math.inf, 2.0])
        assert worst_point(magnitudes, POINTS) == (math.inf, POINTS[1].as_dict())

    def test_point_axis_first(self):
        # rows are points, columns are scanned within each point
        magnitudes = np.array([[0.0, 1.0], [4.0, 0.0], [0.0, 4.0], [2.0, 2.0]])
        assert worst_point(magnitudes, POINTS, axis=0) == (4.0, POINTS[1].as_dict())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_on_coarse_random_values(self, seed):
        rng = np.random.default_rng(seed)
        magnitudes = rng.integers(0, 4, size=(3, 4)).astype(float)
        magnitudes[rng.random((3, 4)) < 0.2] = math.nan
        assert worst_point(magnitudes, POINTS) == loop_reference(magnitudes, POINTS)

    def test_point_set_gives_the_list_answer(self):
        point_set = PointSet(*([getattr(p, name) for p in POINTS] for name in "uvrt"), 1.0)
        magnitudes = np.array([[1.0, 3.0, 2.0, 3.0], [3.0, 0.0, 5.0, 3.0]])
        assert worst_point(magnitudes, point_set) == (5.0, POINTS[2].as_dict())


def test_peak_passes_over_nan_and_floors_at_zero():
    assert peak([[math.nan, 2.0], [1.0, math.nan]]) == 2.0
    assert peak([math.nan, -1.0]) == 0.0
    assert peak([]) == 0.0
