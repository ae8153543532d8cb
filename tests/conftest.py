"""Shared fixtures.

BLAS threads are capped at one before anything imports numpy: with
uncapped threads, the LAPACK eigensolve behind numpy's ``leggauss`` (the
reference rule of ``TestGaussLegendre``) can stall for about half a second
on a small host.  An explicit setting in the environment is kept.
"""

import gc
import math
import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from warpsymp.sampling import OPERATOR_WINDOW, sample_points  # noqa: E402
from warpsymp.spacetime import schwarzschild  # noqa: E402


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
    return dict(u=math.pi / 2, v=1.0, r=3.0, t=0.5, m=1.0)


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """``cli.main`` freezes the heap alive when it starts; unfreeze it after
    each test, so that the garbage pending at that point is collected and not
    kept for the rest of the session."""
    yield
    gc.unfreeze()
