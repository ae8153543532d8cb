"""Seeded sampling: the in-package stream is numpy's default generator bit
for bit, and one batched draw reproduces the per-point stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpsymp.expressions import ChartPoint, PointSet
from warpsymp.prequantum import random_sections
from warpsymp.sampling import OPERATOR_WINDOW, SampleWindow, Stream, sample_points

# word-splitting edge cases of the seed: one word, two words, a full pool of
# four words, and more words than the pool holds
EDGE_SEEDS = [
    2**31,
    2**32 - 1,
    2**32,
    2**32 + 5,
    2**64,
    2**70 + 11,
    987654321,
    2**128 + 1,
    2**200 + 3,
    2**256 - 1,
    10**40,
]


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


def assert_interleaved_draws_match(seed, members):
    """The draws of ``random_sections``, member by member, then a batch."""
    rng = np.random.default_rng(seed)
    stream = Stream(seed)
    for _ in range(members):
        assert stream.uniform(-1.0, 1.0, 6) == rng.uniform(-1.0, 1.0, 6).tolist()
        assert stream.integers(-2, 3) == rng.integers(-2, 3)
        assert stream.uniform(-0.3, 0.3, 1)[0] == rng.uniform(-0.3, 0.3)
    assert np.array_equal(np.reshape(stream.random(4 * 7), (7, 4)), rng.random((7, 4)))


@pytest.mark.parametrize("window", [SampleWindow(), OPERATOR_WINDOW], ids=["identity", "operator"])
@pytest.mark.parametrize("seed", [0, 1234, 98765])
def test_batched_draw_matches_per_point_loop(seed, window):
    for mass, count in ((1.0, 257), (2.5, 11)):
        got = sample_points(mass, count, seed, window)
        expected = reference_points(mass, count, seed, window)
        assert [p.as_dict() for p in got] == [p.as_dict() for p in expected]


def test_zero_count_gives_no_points():
    assert len(sample_points(1.0, 0, seed=5)) == 0


def test_negative_count_is_refused():
    with pytest.raises(ValueError):
        sample_points(1.0, -1, seed=5)


def test_points_are_a_point_set_inside_the_window():
    window = SampleWindow(r_margin=1e-4, r_max_factor=2.5, t_half_width_factor=0.0)
    points = sample_points(0.5, 200, seed=13, window=window)
    assert isinstance(points, PointSet)
    assert points.m == 0.5
    assert min(points.r) >= 2.0 * 0.5 * (1.0 + 1e-4)
    assert max(points.r) <= 2.5 * 0.5
    assert not any(points.t)


class TestStream:
    def test_first_seeds_match_numpy(self):
        for seed in range(200):
            assert_interleaved_draws_match(seed, members=3)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_multiword_seeds_match_numpy(self, seed):
        assert_interleaved_draws_match(seed, members=5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**256 - 1), st.integers(1, 6))
    def test_any_seed_matches_numpy(self, seed, members):
        assert_interleaved_draws_match(seed, members)

    def test_pinned_values_for_seed_1234(self):
        # the values numpy 2.4 gives; a change here is a change of numpy's stream
        stream = Stream(1234)
        assert stream.random(3) == [
            0.9766997666981422,
            0.3801957350196178,
            0.9232462337639554,
        ]
        assert [stream.integers(-2, 3), stream.integers(-2, 3)] == [-2, -1]
        assert stream.uniform(-0.3, 0.3, 1) == [-0.10854176495148146]

    def test_random_sections_draws_match_numpy(self):
        for mass, count, seed in ((1.0, 6, 414), (2.5, 10, 7), (1.0, 100, 2**40 + 3)):
            rng = np.random.default_rng(seed)
            expected = np.array(
                [
                    [*rng.uniform(-1.0, 1.0, 6), rng.integers(-2, 3), rng.uniform(-0.3, 0.3) / mass]
                    for _ in range(count)
                ]
            )
            assert np.array_equal(random_sections(mass, count, seed).draws, expected)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            Stream(-1)

    def test_non_integer_seed_is_refused(self):
        with pytest.raises(TypeError):
            Stream(1.0)

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError):
            Stream(3).random(-1)

    @pytest.mark.parametrize("low, high", [(0, 1), (3, 3), (0, 2**32)])
    def test_integer_range_outside_the_lemire_path_is_refused(self, low, high):
        with pytest.raises(ValueError):
            Stream(3).integers(low, high)


class TestSampleWindow:
    @pytest.mark.parametrize(
        "window",
        [SampleWindow(), OPERATOR_WINDOW, SampleWindow(r_margin=1e-4, r_max_factor=2.5)],
        ids=["default", "operator", "near-horizon"],
    )
    def test_windows_in_use_are_valid(self, window):
        assert 2.0 * (1.0 + window.r_margin) < window.r_max_factor

    # (0.5, 2.5) would draw radii in (2.5, 3), under its lower edge 2m(1 + 0.5)
    @pytest.mark.parametrize("r_margin, r_max_factor", [(0.5, 2.5), (0.25, 2.5)])
    def test_empty_or_inverted_radial_window_is_refused(self, r_margin, r_max_factor):
        with pytest.raises(ValueError, match="radial window"):
            SampleWindow(r_margin=r_margin, r_max_factor=r_max_factor)

    @pytest.mark.parametrize(
        "field",
        ["r_margin", "r_max_factor", "u_margin", "v_margin", "t_half_width_factor"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            SampleWindow(**{field: value})

    def test_negative_time_half_width_is_refused(self):
        with pytest.raises(ValueError):
            SampleWindow(t_half_width_factor=-1.0)
