"""Seeded random sampling of exterior-chart points for identity checks."""

from __future__ import annotations

import math

import numpy as np

from .expressions import ChartPoint


class SampleWindow:
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
        if r_margin <= 0 or r_max_factor <= 2.0:
            raise ValueError("radial window must sit strictly outside the horizon")
        if not 0 < u_margin < math.pi / 2:
            raise ValueError("u margin must lie in (0, pi/2)")
        if not 0 < v_margin < math.pi:
            raise ValueError("v margin must lie in (0, pi)")
        values = (r_margin, r_max_factor, u_margin, v_margin, t_half_width_factor)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a SampleWindow is immutable")


# Sampling window for prequantum-operator checks.  Operator compositions
# stack one more derivative layer than the pointwise identities, so the
# magnitudes are kept small: moderate radii and angles well away from the
# poles, where the angular Hamiltonian fields grow like 1/sin(u).
OPERATOR_WINDOW = SampleWindow(
    r_margin=0.1, r_max_factor=8.0, u_margin=0.2, v_margin=0.2, t_half_width_factor=2.0
)


def sample_points(
    mass: float, count: int, seed: int, window: SampleWindow = SampleWindow()
) -> list:
    """Draw chart points reproducibly; identical arguments give identical points.

    One ``rng.random((count, 4))`` draw gives each point its log-radius,
    colatitude, azimuth and time in that order, each as low + (high - low)
    times a unit draw: the same stream and arithmetic as one
    ``rng.uniform(low, high)`` call per coordinate and point.
    """
    rng = np.random.default_rng(seed)
    r_low = 2.0 * mass * (1.0 + window.r_margin)
    r_high = window.r_max_factor * mass
    t_half = window.t_half_width_factor * mass
    low = np.array([math.log(r_low), window.u_margin, window.v_margin, -t_half])
    high = np.array(
        [math.log(r_high), math.pi - window.u_margin, 2.0 * math.pi - window.v_margin, t_half]
    )
    draws = low + (high - low) * rng.random((count, 4))
    return [
        ChartPoint(u=colatitude, v=azimuth, r=math.exp(log_radius), t=time, m=mass)
        for log_radius, colatitude, azimuth, time in draws.tolist()
    ]
