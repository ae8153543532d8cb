"""Seeded sampling: one batched draw reproduces the per-point stream."""

import math

import numpy as np
import pytest

from warpsymp.expressions import ChartPoint
from warpsymp.sampling import OPERATOR_WINDOW, SampleWindow, sample_points


def reference_points(mass, count, seed, window):
    """One rng.uniform call per coordinate and point, in point order."""
    rng = np.random.default_rng(seed)
    r_low = 2.0 * mass * (1.0 + window.r_margin)
    r_high = window.r_max_factor * mass
    t_half = window.t_half_width_factor * mass
    points = []
    for _ in range(count):
        radius = math.exp(rng.uniform(math.log(r_low), math.log(r_high)))
        colatitude = rng.uniform(window.u_margin, math.pi - window.u_margin)
        azimuth = rng.uniform(window.v_margin, 2.0 * math.pi - window.v_margin)
        time = rng.uniform(-t_half, t_half)
        points.append(ChartPoint(u=colatitude, v=azimuth, r=radius, t=time, m=mass))
    return points


@pytest.mark.parametrize("window", [SampleWindow(), OPERATOR_WINDOW], ids=["identity", "operator"])
@pytest.mark.parametrize("seed", [0, 1234, 98765])
def test_batched_draw_matches_per_point_loop(seed, window):
    for mass, count in ((1.0, 257), (2.5, 11)):
        got = sample_points(mass, count, seed, window)
        expected = reference_points(mass, count, seed, window)
        assert [p.as_dict() for p in got] == [p.as_dict() for p in expected]


def test_zero_count_gives_no_points():
    assert sample_points(1.0, 0, seed=5) == []
