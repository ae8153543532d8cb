"""Seeded random sampling of exterior-chart points for identity checks.

Every seeded draw of the package is a unit draw of the standard library's
``random.Random(seed).random()``, whose sequence Python repeats for the
same integer seed across versions.
"""

from __future__ import annotations

import math
import operator
import random

from .expressions import Immutable, PointSet


def unit_draws(seed: int, count: int) -> list:
    """``count`` unit draws for a non-negative integer seed; ``random.Random``
    would take the absolute value of a negative seed and hash a float."""
    seed = operator.index(seed)
    if seed < 0 or count < 0:
        raise ValueError(f"seed and count must be non-negative, got {seed} and {count}")
    draw = random.Random(seed).random
    return [draw() for _ in range(count)]


class SampleWindow(Immutable):
    """Coordinate window for random sampling, in units tied to the mass.

    Radii are drawn log-uniformly from (2m(1 + r_margin), r_max_factor * m),
    angles uniformly inside the margins, time uniformly in a band of a few
    masses.  The default r and u margins are much wider than the chart's
    horizon guard: the identity checks subtract expressions whose terms grow
    like inverse powers of (1 - 2m/r) and of sin(u), so double precision
    loses roughly 1.5 digits per decade of that growth.  A margin of 1e-2
    keeps cancellation noise orders of magnitude below the 1e-11 .. 1e-12
    thresholds; near-horizon studies pass a smaller margin explicitly and
    read the conditioning data off the report.  Windows are immutable.
    """

    __slots__ = ("r_margin", "r_max_factor", "u_margin", "v_margin", "t_half_width_factor")

    def __init__(
        self,
        r_margin: float = 1e-2,
        r_max_factor: float = 100.0,
        u_margin: float = 1e-2,
        v_margin: float = 1e-2,
        t_half_width_factor: float = 5.0,
    ):
        values = (r_margin, r_max_factor, u_margin, v_margin, t_half_width_factor)
        for name, value in zip(self.__slots__, values):
            if not math.isfinite(value):
                raise ValueError(f"window field {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if r_margin <= 0 or 2.0 * (1.0 + r_margin) >= r_max_factor:
            raise ValueError("radial window must be non-empty and outside the horizon")
        if not 0 < u_margin < math.pi / 2:
            raise ValueError("u margin must lie in (0, pi/2)")
        if not 0 < v_margin < math.pi:
            raise ValueError("v margin must lie in (0, pi)")
        if t_half_width_factor < 0:
            raise ValueError("time half-width must be non-negative")

# Sampling window for prequantum-operator checks.  Operator compositions
# stack one more derivative layer than the pointwise identities, so the
# magnitudes are kept small: moderate radii and angles well away from the
# poles, where the angular Hamiltonian fields grow like 1/sin(u).
OPERATOR_WINDOW = SampleWindow(
    r_margin=0.1, r_max_factor=8.0, u_margin=0.2, v_margin=0.2, t_half_width_factor=2.0
)


def sample_points(
    mass: float, count: int, seed: int, window: SampleWindow = SampleWindow()
) -> PointSet:
    """Draw chart points reproducibly; identical arguments give identical points.

    4 * count unit draws give each point its log-radius, colatitude, azimuth
    and time in that order, each as low + (high - low) * draw, as one
    ``random.Random(seed).uniform`` call per coordinate and point would.
    """
    r_low = 2.0 * mass * (1.0 + window.r_margin)
    r_high = window.r_max_factor * mass
    t_half = window.t_half_width_factor * mass
    low = (math.log(r_low), window.u_margin, window.v_margin, -t_half)
    high = (math.log(r_high), math.pi - window.u_margin, 2.0 * math.pi - window.v_margin, t_half)
    units = unit_draws(seed, 4 * count)
    spans = [(a, b - a) for a, b in zip(low, high)]
    log_radius, colatitude, azimuth, time = (
        [a + width * x for x in units[k::4]] for k, (a, width) in enumerate(spans)
    )
    radius = [math.exp(x) for x in log_radius]
    return PointSet(colatitude, azimuth, radius, time, mass)
