"""Check-result records and worst-case residual helpers.

Every verification in the package reduces to a CheckResult: a named
pass/fail with its threshold, the worst sampled error, the point where it
occurred, and the seed that generated the sample.  Reports serialise to
plain dictionaries so the whole suite output is stable JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# How a check's verdict follows from its worst value and threshold.
BELOW = "below"  # a residual: passes when worst < threshold
ABOVE = "above"  # a lower bound on a magnitude: passes when worst > threshold
FIXED = "fixed"  # structural or report-only: the threshold plays no part


def passes(worst: float, threshold: float, rule: str = BELOW) -> bool:
    """Verdict of a BELOW or ABOVE check; NaN never passes."""
    return worst > threshold if rule == ABOVE else worst < threshold


@dataclass
class CheckResult:
    name: str
    passed: bool
    threshold: float
    worst_error: float
    worst_point: dict | None = None
    seed: int | None = None
    assertable: bool = True
    details: dict = field(default_factory=dict)

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


def worst_expression_error(expression, points):
    """Max |expression| over points and the point achieving it."""
    worst = -1.0
    worst_point = None
    for point in points:
        magnitude = abs(expression.evaluate(point))
        if magnitude > worst:
            worst = magnitude
            worst_point = point
    return max(worst, 0.0), (worst_point.as_dict() if worst_point is not None else None)


def worst_form_error(form, points):
    """Max coefficient magnitude of a form over points, with the point."""
    worst = -1.0
    worst_point = None
    for point in points:
        magnitude = form.max_abs_at(point)
        if magnitude > worst:
            worst = magnitude
            worst_point = point
    return max(worst, 0.0), (worst_point.as_dict() if worst_point is not None else None)
