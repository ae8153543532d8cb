"""Exterior-calculus engine and verification suite for the symplectic
structure of static spherically symmetric spacetimes."""

__version__ = "0.5.0"

from .spacetime import SpacetimeModel, generalized_static, schwarzschild  # noqa: E402
from .suite import CHECK_CATALOGUE, RunConfig, run_suite  # noqa: E402

__all__ = [
    "__version__",
    "SpacetimeModel",
    "schwarzschild",
    "generalized_static",
    "RunConfig",
    "run_suite",
    "CHECK_CATALOGUE",
]
