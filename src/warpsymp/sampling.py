"""Seeded random sampling of exterior-chart points for identity checks.

The draws come from ``Stream``, a pure-Python copy of numpy's default
generator, so that no command imports numpy.
"""

from __future__ import annotations

import math
import operator

from .expressions import PointSet

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed: int) -> list:
    """numpy's ``SeedSequence(seed).generate_state(8, uint32)``: the seed's
    32-bit words hashed into a pool of four, then hashed out to eight."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    multiplier = 0x43B0D7E5

    def hashmix(value):
        nonlocal multiplier
        value ^= multiplier
        multiplier = multiplier * 0x931E8875 & _MASK32
        value = value * multiplier & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    multiplier, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ multiplier
        multiplier = multiplier * 0x58F38DED & _MASK32
        value = value * multiplier & _MASK32
        words.append(value ^ value >> 16)
    return words


class Stream:
    """The stream of ``numpy.random.default_rng(seed)``, bit for bit, for the
    draws this package makes: PCG64 (XSL-RR output) seeded by SeedSequence,
    doubles from the top 53 bits of a 64-bit output, and bounded integers by
    Lemire's method on 32-bit draws, which take the low half of a fresh
    64-bit output and keep the high half for the next 32-bit draw.
    """

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        w = _seed_words(seed)
        start = (w[1] << 32 | w[0]) << 64 | w[3] << 32 | w[2]
        self._inc = ((w[5] << 32 | w[4]) << 64 | w[7] << 32 | w[6]) << 1 | 1
        # from state 0: one step, add the start, one more step
        self._state = ((self._inc + start) * _PCG_MULT + self._inc) & _MASK128
        self._spare = None

    def _outputs(self, count: int, shift: int = 0) -> list:
        """The next ``count`` 64-bit outputs, each shifted right by ``shift``."""
        if count < 0:
            raise ValueError(f"cannot draw a negative count, got {count}")
        state, inc = self._state, self._inc
        outputs = []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = ((state >> 64) ^ state) & _MASK64
            # x rotated right by the top six bits of the state
            outputs.append((((x << 64 | x) >> (state >> 122)) & _MASK64) >> shift)
        self._state = state
        return outputs

    def random(self, count: int) -> list:
        """``count`` doubles, uniform in [0, 1)."""
        # every 53-bit integer is a double, and the power-of-two scale is exact
        return [x * 2.0**-53 for x in self._outputs(count, 11)]

    def uniform(self, low: float, high: float, count: int) -> list:
        return [low + (high - low) * x for x in self.random(count)]

    def integers(self, low: int, high: int) -> int:
        """One integer, uniform in [low, high), for a range of 2 to 2**32 - 1."""
        span = high - low
        if not 2 <= span <= _MASK32:
            raise ValueError(f"integers draws from 2 to 2**32 - 1 values, got {span}")
        while True:
            if self._spare is None:
                (word,) = self._outputs(1)
                draw, self._spare = word & _MASK32, word >> 32
            else:
                draw, self._spare = self._spare, None
            scaled = draw * span
            # reject the low remainders that would bias the result
            if scaled & _MASK32 >= (_MASK32 - span + 1) % span:
                return low + (scaled >> 32)


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
) -> PointSet:
    """Draw chart points reproducibly; identical arguments give identical points.

    One draw of 4 * count unit numbers gives each point its log-radius,
    colatitude, azimuth and time in that order, each as low + (high - low)
    times a unit draw: the same stream and arithmetic as one
    ``numpy.random.default_rng(seed).uniform(low, high)`` call per
    coordinate and point.
    """
    r_low = 2.0 * mass * (1.0 + window.r_margin)
    r_high = window.r_max_factor * mass
    t_half = window.t_half_width_factor * mass
    low = (math.log(r_low), window.u_margin, window.v_margin, -t_half)
    high = (math.log(r_high), math.pi - window.u_margin, 2.0 * math.pi - window.v_margin, t_half)
    units = Stream(seed).random(4 * count)
    log_radius, colatitude, azimuth, time = (
        [a + (b - a) * x for x in units[k::4]] for k, (a, b) in enumerate(zip(low, high))
    )
    radius = [math.exp(x) for x in log_radius]
    return PointSet(colatitude, azimuth, radius, time, mass)
