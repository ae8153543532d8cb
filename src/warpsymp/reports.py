"""Check-result records and worst-case residual helpers.

Every verification in the package reduces to a CheckResult: a named
pass/fail with its threshold, the worst sampled error, the point where it
occurred, and the seed that generated the sample.  Reports serialise to
plain dictionaries so the whole suite output is stable JSON.
"""

from __future__ import annotations

import math

from .expressions import evaluate_many

# How a check's verdict follows from its worst value and threshold.
BELOW = "below"  # a residual: passes when worst < threshold
ABOVE = "above"  # a lower bound on a magnitude: passes when worst > threshold
FIXED = "fixed"  # structural or report-only: the threshold plays no part


def passes(worst: float, threshold: float, rule: str = BELOW) -> bool:
    """Verdict of a BELOW or ABOVE check; NaN never passes."""
    return worst > threshold if rule == ABOVE else worst < threshold


class CheckResult:
    """One check's outcome; mutable, since the suite re-judges results."""

    def __init__(
        self, name: str, passed: bool, threshold: float, worst_error: float,
        worst_point: dict | None = None, seed: int | None = None, assertable: bool = True,
        details: dict | None = None,
    ):
        vars(self).update(
            name=name, passed=passed, threshold=threshold, worst_error=worst_error,
            worst_point=worst_point, seed=seed, assertable=assertable,
            details={} if details is None else details,
        )

    @classmethod
    def judged(cls, name, threshold, worst_error, worst_point=None, seed=None, **kwargs):
        """A BELOW check whose verdict is ``passes(worst_error, threshold)``."""
        verdict = passes(worst_error, threshold)
        return cls(name, verdict, threshold, worst_error, worst_point, seed, **kwargs)

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


def selector(only):
    """The test of whether a group function computes a check: every name
    when ``only`` is None, else the names in the collection ``only``."""
    if only is None:
        return lambda name: True
    return frozenset(only).__contains__


def _nan_free(magnitudes) -> list:
    return [x for x in magnitudes if x == x]


def worst_point(magnitudes, points, start=0.0):
    """The first strict maximum of ``magnitudes`` above ``start`` and the
    point where it occurs.

    ``magnitudes`` is a flat sequence whose element k belongs to point
    k mod len(points) of ``points``, a PointSet or a list of ChartPoints:
    one value per point, or one run of points after another, such as a
    (section, point) scan read section by section.  NaN is never selected.
    With nothing above ``start`` the result is (start, None).
    """
    # max keeps its first element while that is NaN, and passes over later NaN
    worst = max(magnitudes, default=start)
    if worst != worst:
        worst = max(_nan_free(magnitudes), default=start)
    if not worst > start:
        return start, None
    return worst, points[magnitudes.index(worst) % len(points)].as_dict()


def least_point(magnitudes, points):
    """The first minimum of ``magnitudes``, laid out as for ``worst_point``,
    and its point; NaN is never selected.  (inf, None) when every value is
    NaN or there is none."""
    least = min(magnitudes, default=None)
    if least != least:
        least = min(_nan_free(magnitudes), default=None)
    if least is None:
        return math.inf, None
    return least, points[magnitudes.index(least) % len(points)].as_dict()


def peak(magnitudes) -> float:
    """The largest of ``magnitudes`` and 0; NaN is passed over."""
    return max([0.0, *magnitudes])


def worst_expression_error(expression, points):
    """Max |expression| over points and the point achieving it."""
    (values,) = evaluate_many([expression], points)
    worst, at = worst_point(list(map(abs, values)), points, start=-1.0)
    return max(worst, 0.0), at


def worst_form_error(form, points):
    """Max coefficient magnitude of a form over points, with the point."""
    worst, at = worst_point(form.max_abs(points), points, start=-1.0)
    return max(worst, 0.0), at
