"""Seeded sampling: every draw is a unit draw of ``random.Random(seed)``,
and one batched draw reproduces the per-point stream."""

import math
import random

import pytest

from warpsymp.expressions import PointSet
from warpsymp.prequantum import random_sections
from warpsymp.sampling import OPERATOR_WINDOW, SampleWindow, sample_points, unit_draws

# each seeded draw of the package, called with a seed and a count
DRAWS = {
    "points": lambda seed, count: sample_points(1.0, count, seed),
    "sections": lambda seed, count: random_sections(1.0, count, seed),
}


def reference_points(mass, count, seed, window):
    """One ``uniform`` call per coordinate and point, in point order."""
    rng = random.Random(seed)
    r_low = 2.0 * mass * (1.0 + window.r_margin)
    r_high = window.r_max_factor * mass
    t_half = window.t_half_width_factor * mass
    points = []
    for _ in range(count):
        radius = math.exp(rng.uniform(math.log(r_low), math.log(r_high)))
        colatitude = rng.uniform(window.u_margin, math.pi - window.u_margin)
        azimuth = rng.uniform(window.v_margin, 2.0 * math.pi - window.v_margin)
        time = rng.uniform(-t_half, t_half)
        points.append(dict(u=colatitude, v=azimuth, r=radius, t=time, m=mass))
    return points


@pytest.mark.parametrize("window", [SampleWindow(), OPERATOR_WINDOW], ids=["identity", "operator"])
@pytest.mark.parametrize("seed", [0, 1234, 98765])
def test_batched_draw_matches_per_point_loop(seed, window):
    for mass, count in ((1.0, 257), (2.5, 11)):
        got = sample_points(mass, count, seed, window)
        expected = reference_points(mass, count, seed, window)
        assert list(got) == expected


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
    """``unit_draws``, the one stream behind the point and section draws."""

    def test_pinned_values_for_seed_1234(self):
        # the values CPython's Mersenne Twister gives, which Python promises
        # to repeat for an integer seed; a change here changes every report
        assert unit_draws(1234, 3) == [
            0.9664535356921388,
            0.4407325991753527,
            0.007491470058587191,
        ]
        assert sample_points(1.0, 1, 1234)[0] == {
            "u": 1.385787643783316,
            "v": 0.05692046520011909,
            "r": 87.73048498536885,
            "t": 4.109759624491241,
            "m": 1.0,
        }
        assert random_sections(1.0, 1, 1234).draws == (
            (
                0.9329070713842775,
                -0.11853480164929464,
                -0.9850170598828256,
                0.8219519248982483,
                0.878537994727528,
                0.16445514611789824,
                1.0,
                -0.24963706389774962,
            ),
        )

    @pytest.mark.parametrize(
        "mass, count, seed", [(1.0, 6, 414), (2.5, 10, 7), (1.0, 100, 2**40 + 3)]
    )
    def test_section_draws_match_per_member_loop(self, mass, count, seed):
        rng = random.Random(seed)
        expected = []
        for _ in range(count):
            coefficients = [-1.0 + (1.0 - -1.0) * rng.random() for _ in range(6)]
            winding = -2 + math.floor(5 * rng.random())
            kappa = -0.3 + (0.3 - -0.3) * rng.random()
            expected.append((*coefficients, winding, kappa / mass))
        assert random_sections(mass, count, seed).draws == tuple(expected)

    @pytest.mark.parametrize("seed", [0, 414, 2**40 + 3])
    def test_section_draws_are_prefix_stable(self, seed):
        """A family's first k members do not depend on how many are drawn,
        so a smaller family is the same seed drawn with a smaller count."""
        longer = random_sections(2.5, 12, seed).draws
        for k in (0, 1, 5, 12):
            assert random_sections(2.5, k, seed).draws == longer[:k]

    @pytest.mark.parametrize(
        "window", [SampleWindow(), OPERATOR_WINDOW], ids=["identity", "operator"]
    )
    @pytest.mark.parametrize("seed", [0, 901, 2**40 + 3])
    def test_points_are_prefix_stable(self, seed, window):
        """The first k points do not depend on how many are drawn."""
        longer = sample_points(2.5, 12, seed, window)
        for k in (0, 1, 5, 12):
            shorter = sample_points(2.5, k, seed, window)
            assert [shorter.u, shorter.v, shorter.r, shorter.t] == [
                longer.u[:k], longer.v[:k], longer.r[:k], longer.t[:k]
            ]

    def test_every_winding_is_drawn(self):
        windings = [draw[6] for draw in random_sections(1.0, 100, 3).draws]
        assert set(windings) == {-2.0, -1.0, 0.0, 1.0, 2.0}

    def test_negative_seed_is_refused(self):
        # random.Random would take its absolute value
        for draw in DRAWS.values():
            with pytest.raises(ValueError, match="non-negative, got -1 and"):
                draw(-1, 3)

    def test_non_integer_seed_is_refused(self):
        # random.Random would hash it
        for draw in DRAWS.values():
            with pytest.raises(TypeError):
                draw(1.0, 3)

    def test_negative_count_is_refused(self):
        for draw in DRAWS.values():
            with pytest.raises(ValueError, match="non-negative, got 3 and -"):
                draw(3, -1)


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
