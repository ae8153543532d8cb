"""Check-result records and worst-case residual helpers.

Every verification in the package reduces to a CheckResult: a named
pass/fail with its threshold, the worst sampled error, the point where it
occurred, and the seed that generated the sample.  Reports serialise to
plain dictionaries so the whole suite output is stable JSON.
"""

from __future__ import annotations

import numpy as np

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


def worst_point(magnitudes, points, start=0.0, axis=-1):
    """The first strict maximum of ``magnitudes`` above ``start`` and the
    point where it occurs.

    Elements are scanned in C order, so an array shaped (section, point)
    is read section by section; ``axis`` is the axis that indexes
    ``points``, a PointSet or a list of ChartPoints.  NaN is never
    selected.  With nothing above ``start`` the result is (start, None).
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    above = magnitudes > start
    if not above.any():
        return start, None
    worst = magnitudes[above].max()
    flat_index = int(np.argmax(magnitudes == worst))
    index = np.unravel_index(flat_index, magnitudes.shape)[axis]
    return float(worst), points[index].as_dict()


def peak(magnitudes) -> float:
    """The largest of ``magnitudes`` and 0; NaN is passed over."""
    return float(np.fmax.reduce(np.ravel(magnitudes), initial=0.0))


def worst_expression_error(expression, points):
    """Max |expression| over points and the point achieving it."""
    (values,) = evaluate_many([expression], points)
    worst, at = worst_point(np.abs(values), points, start=-1.0)
    return max(worst, 0.0), at


def worst_form_error(form, points):
    """Max coefficient magnitude of a form over points, with the point."""
    worst, at = worst_point(form.max_abs(points), points, start=-1.0)
    return max(worst, 0.0), at
