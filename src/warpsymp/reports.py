"""The check catalogue, check-result records and worst-case residual helpers.

Every verification in the package reduces to a CheckResult: a check's
catalogue row with its threshold, the worst sampled error, the point where
it occurred, and the seed that generated the sample; its pass/fail follows
from the row.  Reports serialise to plain dictionaries so the whole suite
output is stable JSON.

``GROUP_ROWS`` is the catalogue: every check's name, default tolerance,
verdict rule and assertability, under its group's key, in report order.
Each check name of the package is written there and nowhere else; the
group functions read their rows by group key, and each result is judged
by its row.

Every reduction of sampled magnitudes, with its NaN policy and tie rule,
is here too: ``worst_point``, ``least_point``, ``peak`` and
``residual_results``, which judges every absolute residual check.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .expressions import ZERO, evaluate_many

# How a check's verdict follows from its worst value and threshold.
BELOW = "below"  # a residual: passes when worst < threshold
ABOVE = "above"  # a lower bound on a magnitude: passes when worst > threshold
FIXED = "fixed"  # structural or report-only: the threshold plays no part

# The least scale a relative error is divided by: a zero scale gives a finite error.
RELATIVE_FLOOR = 1e-300


def passes(worst: float, threshold: float, rule: str = BELOW) -> bool:
    """Verdict of a BELOW or ABOVE check; NaN never passes."""
    return worst > threshold if rule == ABOVE else worst < threshold


class CheckResult:
    """One check's outcome under its catalogue row ``check``, which gives
    its name, assertability and verdict: ``passed`` is a FIXED row's
    ``verdict`` (its group's finding), else the row's rule applied to
    ``worst_error`` and ``threshold``.  The suite sets ``threshold``."""

    def __init__(
        self, check, verdict: bool, threshold: float, worst_error: float,
        worst_point: dict | None = None, seed: int | None = None, details: dict | None = None,
    ):
        vars(self).update(
            check=check, verdict=verdict, threshold=threshold, worst_error=worst_error,
            worst_point=worst_point, seed=seed, details={} if details is None else details,
        )

    name = property(attrgetter("check.name"))
    assertable = property(attrgetter("check.assertable"))

    @property
    def passed(self) -> bool:
        if self.check.rule == FIXED:
            return self.verdict
        return passes(self.worst_error, self.threshold, self.check.rule)

    def to_dict(self) -> dict:
        return {
            "check_name": self.name,
            "pass": self.passed,
            "threshold": self.threshold,
            "worst_error": self.worst_error,
            "worst_point": self.worst_point,
            "seed": self.seed,
            "assertable": self.assertable,
            "details": self.details,
        }


class Check(namedtuple("Check", "name tolerance rule assertable", defaults=(BELOW, True))):
    """A check's name, its default tolerance, its verdict rule and whether
    its verdict counts toward a run's exit code: one row of the catalogue."""

    __slots__ = ()

    def judged(self, worst, point=None, seed=None, threshold=None, verdict=True, details=None):
        """This check's result for the worst value ``worst``, against
        ``threshold``, or the row's tolerance when that is None.  A FIXED
        check's verdict is ``verdict``: its group's structural finding, or
        True for a report-only number."""
        if threshold is None:
            threshold = self.tolerance
        return CheckResult(self, verdict, threshold, worst, point, seed, details)


# The catalogue: group key -> the checks the group emits, in report order.
GROUP_ROWS = {
    "gradient": (Check("gradient_relation", 1e-11),),
    "observer": (Check("observer_unit_norm", 1e-12), Check("observer_orthogonality", 1e-12)),
    "omega": (
        Check("flux_wedge_square", 1e-12),
        Check("flux_closure_relation", 1e-11),
        Check("flux_volume_identity", 1e-11),
    ),
    "foliation": (
        Check("foliation_leaf_pfaffian", 1e-6, ABOVE),
        Check("foliation_volume_form", 1e-10, ABOVE),
        Check("foliation_leaf_closedness", 0.0, FIXED),
    ),
    "symplectic": (
        Check("closed_rescaled_flux", 1e-11),
        Check("dual_flux_potential", 1e-12),
        Check("dual_flux_square", 1e-12),
        Check("symplectic_square_identity", 1e-11),
        Check("symplectic_nondegeneracy", 0.0, FIXED),
    ),
    # one check per coordinate, in the order of COORDINATE_NAMES
    "hamiltonian": (
        Check("hamiltonian_u", 1e-10),
        Check("hamiltonian_v", 1e-10),
        Check("hamiltonian_r", 1e-10),
        Check("hamiltonian_t", 1e-10),
    ),
    "bracket": (
        Check("bracket_uv", 1e-10),
        Check("bracket_rt", 1e-10),
        Check("bracket_cross_zeros", 1e-10),
        Check("bracket_antisymmetry", 1e-10),
        Check("jacobi_identity", 1e-9),
    ),
    "sphere_integral": (
        Check("sphere_integral_mass", 1e-10),
        Check("sphere_integral_dual_zero", 1e-12),
    ),
    "curvature_potential": (Check("connection_curvature_potential", 1e-11),),
    "curvature_sections": (Check("connection_curvature_sections", 1e-9),),
    # one check per coordinate pair, in the order of itertools.combinations
    "commutators": (
        Check("commutator_uv", 1e-9),
        Check("commutator_ur", 1e-9),
        Check("commutator_ut", 1e-9),
        Check("commutator_vr", 1e-9),
        Check("commutator_vt", 1e-9),
        Check("commutator_rt", 1e-9),
    ),
    "operators": (
        Check("operator_chain_rule", 1e-9),
        Check("operator_printed_area_relation", 1e-9, FIXED, False),
        Check("operator_printed_volume_relation", 1e-9, FIXED, False),
    ),
    "integrality": (Check("integrality_class", 1e-10, FIXED, False),),
}


def selector(only):
    """The test of whether a group function computes a check (a row): every
    row when ``only`` is None, else the rows named in the collection ``only``."""
    if only is None:
        return lambda check: True
    names = frozenset(only)
    return lambda check: check.name in names


def _first_extreme(pick, magnitudes, points):
    """The first value ``pick`` (max or min) selects from ``magnitudes``,
    laid out as for ``worst_point``, and its point; (0.0, None) if none."""
    # pick keeps its first element while that is NaN, and passes over later NaN
    value = pick(magnitudes, default=None)
    if value != value:
        value = pick([x for x in magnitudes if x == x], default=None)
    if value is None:
        return 0.0, None
    return value, points[magnitudes.index(value) % len(points)]


def worst_point(magnitudes, points):
    """The first maximum of ``magnitudes`` and the point where it occurs.

    ``magnitudes`` is a flat sequence whose element k belongs to point
    k mod len(points) of ``points``, a PointSet: one value per point, or
    one run of points after another, such as a (section, point) scan read
    section by section.  The point is ``points[k]``, a mapping of the chart
    coordinates and the mass, so a residual that is 0 everywhere names its
    first point.  NaN is never selected; with no value that is a number the
    result is (0.0, None).
    """
    return _first_extreme(max, magnitudes, points)


def least_point(magnitudes, points):
    """The first minimum of ``magnitudes``, laid out as for ``worst_point``,
    and its point; NaN is never selected.  (0.0, None) when no value is a
    number."""
    return _first_extreme(min, magnitudes, points)


def peak(magnitudes) -> float:
    """The largest of ``magnitudes`` and 0; NaN is passed over."""
    return max([0.0, *magnitudes])


def residual_results(residuals, points, seed) -> list:
    """The results of absolute residual checks, in the order of ``residuals``,
    which maps each check (a catalogue row) to (roots, threshold): the
    expressions the residual consists of, such as a form's coefficients, and
    the threshold to judge it by (None for the row's tolerance).  All roots
    are evaluated over ``points`` in one batch.  A check's magnitude at a
    point is the largest of 0 and its roots' |value| there, NaN passed over;
    its worst error and point are the ``worst_point`` of those magnitudes."""
    zeros, *columns = evaluate_many(
        [ZERO, *(root for roots, _ in residuals.values() for root in roots)], points
    )
    columns = iter(columns)
    results = []
    for check, (roots, threshold) in residuals.items():
        absolute = [map(abs, next(columns)) for _ in roots]
        # max keeps its first argument, 0, against NaN
        magnitudes = list(map(max, zeros, *absolute)) if absolute else zeros
        worst, at = worst_point(magnitudes, points)
        results.append(check.judged(worst, at, seed, threshold))
    return results
