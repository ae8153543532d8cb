import gc
import math

import pytest

from warpsymp.expressions import ChartPoint
from warpsymp.sampling import OPERATOR_WINDOW, sample_points
from warpsymp.spacetime import schwarzschild


@pytest.fixture(scope="session")
def model():
    return schwarzschild(1.0)


@pytest.fixture(scope="session")
def points(model):
    """Identity-check sample: 40 seeded points of the unit-mass chart."""
    return sample_points(model.mass, 40, seed=901)


@pytest.fixture(scope="session")
def operator_points(model):
    """Pole-avoiding moderate-radius sample for operator compositions."""
    return sample_points(model.mass, 15, seed=902, window=OPERATOR_WINDOW)


@pytest.fixture
def equator_point():
    return ChartPoint(u=math.pi / 2, v=1.0, r=3.0, t=0.5, m=1.0)


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """``cli.main`` freezes the heap alive when it starts; unfreeze it after
    each test, so that the garbage pending at that point is collected and not
    kept for the rest of the session."""
    yield
    gc.unfreeze()
