"""Verification-suite orchestration: configuration, the check catalogue,
JSON report assembly, and CSV emission.

The catalogue runs, in order: the gradient relation, observer
normalisation, flux-form identities, foliation nondegeneracy, the
symplectic-structure checks, Hamiltonian closed-form comparisons, the
bracket table, the sphere integral, connection curvature, the six
commutator checks, the geometric-operator identities, and the integrality
report.  Checks marked non-assertable (the deliberately inconsistent
printed operator relations and the integrality numbers) never affect the
exit code.

The catalogue's rows, each check's name, default tolerance and verdict
rule under its group's key, are ``reports.GROUP_ROWS``; this module keeps
each group's runner under the same key, in ``_RUNNERS``.
``CHECK_CATALOGUE``, ``DEFAULT_TOLERANCES`` and ``GROUP_CHECKS`` are views
of the rows.

Reports are deterministic: identical configuration gives a byte-identical
body; wall time lives outside the body.
"""

from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from pathlib import Path

from . import __version__
from . import expressions as ex
from .hamiltonian import (
    QuadratureSpec,
    bracket_table,
    poisson_bracket,
    sphere_sum,
    surface_integral,
    verify_hamiltonian_fields,
)
from .prequantum import (
    ConnectionPotential,
    CurvatureScale,
    SectionFamily,
    commutator_suite,
    curvature_section_check,
    geometric_operator_report,
    integrality_report,
    phase_section,
    random_sections,
    separable_radial_residual,
    verify_curvature_potential,
)
from .reports import FIXED, GROUP_ROWS, Check, selector  # Check is re-exported
from .sampling import OPERATOR_WINDOW, SampleWindow, sample_points
from .spacetime import (
    foliation_report,
    schwarzschild,
    verify_gradient_relation,
    verify_observer,
    verify_omega_identities,
    verify_symplectic,
)


class ConfigError(ValueError):
    """Invalid run configuration (bad value, unknown key, unknown check)."""


class GroupInputs(ex.Immutable):
    """What every check group of one suite run draws on, all derived from
    the run's configuration; immutable.

    The model is built at once.  The quadrature, the connection potential,
    the sample points and the test sections are built on first use, so a
    run builds only what its selected checks read.
    """

    def __init__(self, config: RunConfig):
        vars(self).update(config=config, model=schwarzschild(config.mass))

    @property
    def seed(self) -> int:
        return self.config.seed

    @cached_property
    def quadrature(self) -> QuadratureSpec:
        config = self.config
        return QuadratureSpec(config.n_u, config.n_v, config.resolved_r0(), config.t0)

    @cached_property
    def potential(self) -> ConnectionPotential:
        return ConnectionPotential.monopole(self.model, CurvatureScale(self.config.scale_mode))

    @cached_property
    def identity_points(self) -> ex.PointSet:
        return sample_points(self.config.mass, self.config.n_samples, self.seed)

    @cached_property
    def operator_points(self) -> ex.PointSet:
        count = self.config.operator_samples()
        return sample_points(self.config.mass, count, self.seed + 1, OPERATOR_WINDOW)

    @cached_property
    def sections(self) -> SectionFamily:
        return random_sections(self.config.mass, self.config.n_sections, self.seed + 2)


def _sphere_integral_checks(g: GroupInputs, only) -> list:
    mass_check, dual_check = GROUP_ROWS["sphere_integral"]
    results = []
    if mass_check.name in only:
        mass_integral = surface_integral(g.model.symplectic_form, g.quadrature, g.model)
        details = {
            "value": mass_integral.value,
            "error_estimate": mass_integral.error_estimate,
            "r0": g.quadrature.r0,
        }
        worst = abs(mass_integral.value - g.model.mass)
        results.append(mass_check.judged(worst, None, g.seed, details=details))
    if dual_check.name in only:
        dual_integral = surface_integral(g.model.dual_flux_form, g.quadrature, g.model)
        details = {"value": dual_integral.value}
        results.append(dual_check.judged(abs(dual_integral.value), None, g.seed, details=details))
    return results


def _bracket_checks(g: GroupInputs, only) -> list:
    # each point set is drawn only for the checks that read it
    jacobi = GROUP_ROWS["bracket"][-1].name
    table_points = g.identity_points if only - {jacobi} else None
    jacobi_points = g.operator_points if jacobi in only else None
    checks, _ = bracket_table(
        g.model, table_points, seed=g.seed, jacobi_points=jacobi_points, only=only
    )
    return checks


# Group key -> runner, in the order of ``reports.GROUP_ROWS``.  A runner
# takes the group inputs and the set of the group's check names to compute,
# and returns their results; it computes no other check of the group, so a
# full group is the selection of all its names.  Each runner calls its
# group function through this module's global name at call time, so a
# rebinding of that name (a test double, a tracer) is what the suite runs.
# Runners leave thresholds at the group functions' defaults, each check's
# own tolerance: ``run_suite`` gives each result its own configured
# threshold, by which the result's row judges it.
_RUNNERS = {
    "gradient": lambda g, only: [verify_gradient_relation(g.model, g.identity_points, seed=g.seed)],
    "observer": lambda g, only: verify_observer(g.model, g.identity_points, seed=g.seed, only=only),
    "omega": lambda g, only: verify_omega_identities(
        g.model, g.identity_points, seed=g.seed, only=only
    ),
    "foliation": lambda g, only: foliation_report(
        g.model, g.identity_points, seed=g.seed, only=only
    ),
    "symplectic": lambda g, only: verify_symplectic(
        g.model, g.identity_points, seed=g.seed, only=only
    ),
    "hamiltonian": lambda g, only: verify_hamiltonian_fields(
        g.model, g.identity_points, seed=g.seed, only=only
    ),
    "bracket": _bracket_checks,
    "sphere_integral": _sphere_integral_checks,
    "curvature_potential": lambda g, only: [
        verify_curvature_potential(g.model, g.potential, g.identity_points, seed=g.seed)
    ],
    "curvature_sections": lambda g, only: [
        curvature_section_check(g.model, g.potential, g.sections, g.operator_points, seed=g.seed)
    ],
    "commutators": lambda g, only: commutator_suite(
        g.model, g.potential, g.sections, g.operator_points, seed=g.seed, only=only
    ),
    "operators": lambda g, only: geometric_operator_report(
        g.model, g.potential, g.sections, g.operator_points, seed=g.seed, only=only
    ),
    "integrality": lambda g, only: [integrality_report(g.model, g.quadrature, seed=g.seed)],
}

# The groups whose runners read ``GroupInputs.sections``: only a selection
# that holds one of them draws test sections.
SECTION_GROUPS = frozenset({"curvature_sections", "commutators", "operators"})

_CHECKS = {check.name: check for checks in GROUP_ROWS.values() for check in checks}
CHECK_CATALOGUE = tuple(_CHECKS)
DEFAULT_TOLERANCES = {name: check.tolerance for name, check in _CHECKS.items()}
GROUP_CHECKS = {key: tuple(check.name for check in checks) for key, checks in GROUP_ROWS.items()}

# Sphere quadrature bounds.  The fine pass doubles both counts: its
# Gauss-Legendre rule costs O((2 n_u)^2) recurrence work, and an integrand
# that depends on v is evaluated on a grid of 4 n_u n_v floats (a
# v-independent one on a column of 2 n_u, summed without building the grid).
MAX_N_U, MAX_N_V, MAX_SPHERE_NODES = 1024, 4096, 1 << 20
# Operator-scan bound: the section scans evaluate every test section at
# every operator point, one float per (section, point) pair and node.
MAX_SECTION_POINTS = 1 << 17


def _finite(value) -> bool:
    """True for a finite int or float; ``math.isfinite`` raises for others."""
    return isinstance(value, (int, float)) and math.isfinite(value)


class RunConfig:
    """Configuration of a verification run.

    ``r0`` defaults to a mass-scaled value when left unset;
    ``tolerances`` overrides individual catalogue thresholds by name, except
    those of checks whose verdict is fixed.  Fields may be set after
    construction; ``validate`` checks them.
    """

    def __init__(
        self, mass: float = 1.0, seed: int = 1234, n_samples: int = 100, n_sections: int = 10,
        tolerances: dict | None = None, n_u: int = 32, n_v: int = 64, r0: float | None = None,
        t0: float = 0.0, scale_mode: str = "plain", output_dir: str = ".",
    ):
        vars(self).update(
            mass=mass, seed=seed, n_samples=n_samples, n_sections=n_sections,
            tolerances={} if tolerances is None else tolerances, n_u=n_u, n_v=n_v, r0=r0, t0=t0,
            scale_mode=scale_mode, output_dir=output_dir,
        )

    def validate(self):
        # bool is an int, but no field or tolerance takes one
        for name, value in [*vars(self).items(), *self.tolerances.items()]:
            if isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not (_finite(self.mass) and self.mass > 0):
            raise ConfigError(f"mass must be positive and finite, got {self.mass!r}")
        top = max(window.r_max_factor for window in (SampleWindow(), OPERATOR_WINDOW))
        if math.isinf(top * self.mass):
            raise ConfigError(
                f"mass {self.mass!r} is too large: the sampling window's outer radius "
                f"{top:g} * mass overflows"
            )
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("n_samples", "n_sections", "n_u", "n_v"):
            if not isinstance(getattr(self, name), int):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_samples < 10:
            raise ConfigError("n_samples must be at least 10")
        if self.n_sections < 1:
            raise ConfigError("n_sections must be at least 1")
        if self.operator_samples() > MAX_SECTION_POINTS:
            raise ConfigError(
                f"max(10, n_samples // 5) must be at most {MAX_SECTION_POINTS} operator points, "
                f"got n_samples={self.n_samples}"
            )
        n_u, n_v = self.n_u, self.n_v
        if not (2 <= n_u <= MAX_N_U and 4 <= n_v <= MAX_N_V and n_u * n_v <= MAX_SPHERE_NODES):
            raise ConfigError(
                f"quadrature needs 2 <= n_u <= {MAX_N_U}, 4 <= n_v <= {MAX_N_V} "
                f"and n_u * n_v <= {MAX_SPHERE_NODES}, got {n_u} x {n_v}"
            )
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown check name in tolerances: {name!r}")
            if _CHECKS[name].rule == FIXED:
                raise ConfigError(
                    f"the threshold of {name!r} is fixed (structural or report-only) "
                    "and cannot be overridden"
                )
            if not (_finite(value) and value > 0):
                raise ConfigError(f"tolerance for {name!r} must be positive and finite")
        if self.scale_mode not in ("plain", "weil"):
            raise ConfigError(f"scale_mode must be 'plain' or 'weil', got {self.scale_mode!r}")
        horizon = ex.horizon_radius(self.mass)
        if self.r0 is not None and not (_finite(self.r0) and self.r0 > horizon):
            raise ConfigError(f"sphere radius r0={self.r0} must be finite and exceed {horizon}")
        if not _finite(self.t0):
            raise ConfigError(f"sphere time t0 must be finite, got {self.t0!r}")

    def operator_samples(self) -> int:
        """The operator window's point count: a fifth of n_samples, at least 10."""
        return max(10, self.n_samples // 5)

    def resolved_r0(self) -> float:
        return 3.0 * self.mass if self.r0 is None else self.r0

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def echo(self) -> dict:
        """The fields, with the tolerances sorted by name and r0 resolved."""
        tolerances = dict(sorted(self.tolerances.items()))
        return {**vars(self), "tolerances": tolerances, "r0": self.resolved_r0()}


# ---------------------------------------------------------------------------
# Configuration files: flat "key = value" lines, '#' comments.
# ---------------------------------------------------------------------------

# Config key -> (RunConfig field, parser, help text).  Each key is also a
# flag of every command (``--scale-mode`` for ``scale_mode``).
# ``tolerance.NAME`` keys are gathered apart and applied after every key is
# read.
CONFIG_KEYS = {
    "mass": ("mass", float, "mass parameter (geometric units)"),
    "seed": ("seed", int, "seed for all sampled checks"),
    "samples": ("n_samples", int, "number of sampled chart points"),
    "sections": ("n_sections", int, "number of random test sections"),
    "nu": ("n_u", int, "sphere quadrature: colatitude node count"),
    "nv": ("n_v", int, "sphere quadrature: azimuth node count"),
    "r0": ("r0", float, "sphere radius (default 3 * mass)"),
    "t0": ("t0", float, "sphere time slice"),
    "scale_mode": ("scale_mode", str, "curvature scaling: plain or weil"),
    "out": ("output_dir", str, "output directory for reports and CSVs"),
}


def load_config_file(path) -> dict:
    """Parse a flat key-value config file into raw string pairs."""
    raw = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not (key in CONFIG_KEYS or key.startswith("tolerance.")):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def config_from_sources(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from raw file values, then apply flag overrides."""
    merged = dict(file_values or {})
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})

    config = RunConfig()
    for key, value in merged.items():
        if key in CONFIG_KEYS:
            name, parse, _ = CONFIG_KEYS[key]
        elif key.startswith("tolerance."):
            name, parse = None, float
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            parsed = parse(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{key}: invalid {parse.__name__} value {value!r}") from err
        if name is None:
            config.tolerances[key.split(".", 1)[1]] = parsed
        else:
            setattr(config, name, parsed)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


class SuiteReport(namedtuple("SuiteReport", ("body", "wall_time_seconds"))):
    """The deterministic report ``body`` and, outside it, the run's wall time."""

    __slots__ = ()

    @property
    def checks(self) -> list:
        return self.body["checks"]

    @property
    def all_passed(self) -> bool:
        return all(check["pass"] for check in self.checks if check["assertable"])

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def body_json(self) -> str:
        return json.dumps(self.body, sort_keys=True, indent=2)

    def to_json(self) -> str:
        return json.dumps(
            {"body": self.body, "wall_time_seconds": self.wall_time_seconds},
            sort_keys=True,
            indent=2,
        )


def run_suite(config: RunConfig, only: str | Iterable[str] | None = None) -> SuiteReport:
    """Execute the check catalogue, or only the named checks (one name or a
    collection), and assemble the deterministic report.

    Each group runs at most once per call, and computes only its selected
    checks, by the same code as in a full run.  Every result is then given its
    own configured threshold, which its row judges it by; no group's worst
    error depends on its threshold.  A selection holding a group of
    ``SECTION_GROUPS`` is refused before any draw past ``MAX_SECTION_POINTS``
    (section, point) pairs.
    """
    config.validate()
    selected = None
    if only is not None:
        selected = {only} if isinstance(only, str) else set(only)
        unknown = sorted(selected.difference(_CHECKS))
        if unknown:
            raise ConfigError(f"unknown check {', '.join(map(repr, unknown))}")
    wanted = selector(selected)
    groups = {key: [c for c in checks if wanted(c)] for key, checks in GROUP_ROWS.items()}
    groups = {key: checks for key, checks in groups.items() if checks}
    pairs = config.n_sections * config.operator_samples()
    if pairs > MAX_SECTION_POINTS and not SECTION_GROUPS.isdisjoint(groups):
        raise ConfigError(
            f"n_sections * max(10, n_samples // 5) must be at most {MAX_SECTION_POINTS} "
            f"(section, point) pairs, got n_sections={config.n_sections} "
            f"and n_samples={config.n_samples}"
        )
    started = time.perf_counter()

    inputs = GroupInputs(config)

    ordered = []
    for key, checks in groups.items():
        names = frozenset(check.name for check in checks)
        results = {result.name: result for result in _RUNNERS[key](inputs, names)}
        for check in checks:
            result = results[check.name]
            result.threshold = config.tolerance(check.name)
            ordered.append(result.to_dict())
    body = {
        "version": __version__,
        "seed": config.seed,
        "config": config.echo(),
        "checks": ordered,
    }
    return SuiteReport(body=body, wall_time_seconds=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

CSV_KINDS = ("bracket_grid", "omega_coefficient", "eigen_residual", "integral_convergence")


def _linspace(start: float, stop: float, num: int) -> list:
    """``num`` evenly spaced values from start to stop, both included:
    start + k * step, with the last value set to stop, as numpy's
    ``linspace`` computes them."""
    step = (stop - start) / (num - 1)
    return [k * step + start for k in range(num - 1)] + [stop]


def _geomspace(start: float, stop: float, num: int) -> list:
    """``num`` values from start to stop (both positive, both included),
    evenly spaced in log10 as for numpy's ``geomspace``."""
    exponents = _linspace(math.log10(start), math.log10(stop), num)
    return [start, *(math.pow(10.0, y) for y in exponents[1:-1]), stop]


def emit_csv(what: str, config: RunConfig) -> Path:
    """Write one of the plot-data CSVs and return its path."""
    if what not in CSV_KINDS:
        raise ConfigError(f"unknown CSV selector {what!r}; choose from {CSV_KINDS}")
    config.validate()
    inputs = GroupInputs(config)
    model, mass = inputs.model, config.mass
    target = Path(config.output_dir) / f"{what}.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    rows: list[str] = []

    if what == "integral_convergence":
        rows.append("n_u,abs_error")
        r0, t0 = inputs.quadrature.r0, inputs.quadrature.t0
        # integrate's fine pass, halved while n_u >= 4 and both stay whole
        counts = [(2 * config.n_u, 2 * config.n_v)]
        while counts[-1][0] >= 8 and counts[-1][0] % 2 == counts[-1][1] % 2 == 0:
            counts.append((counts[-1][0] // 2, counts[-1][1] // 2))
        for n_u, n_v in reversed(counts):
            value = sphere_sum(model.symplectic_form, model, n_u, n_v, r0, t0)
            rows.append(f"{n_u},{abs(value - mass)!r}")
    elif what in ("bracket_grid", "omega_coefficient"):
        if what == "bracket_grid":
            rows.append("u,r,bracket_uv,bracket_rt")
            roots = [poisson_bracket(ex.U, ex.V, model), poisson_bracket(ex.R, ex.T, model)]
        else:
            rows.append("u,r,coefficient")
            roots = [model.flux_form.coefficient((0, 1))]
        # every colatitude with every radius, colatitude outer
        line = _linspace(0.3, math.pi - 0.3, 24)
        colatitudes = [u for u in line for _ in range(24)]
        radii = _geomspace(2.2 * mass, 50.0 * mass, 24) * 24
        grid = {"u": colatitudes, "v": 1.0, "r": radii, "t": 0.0, "m": mass}
        columns = [colatitudes, radii, *ex.evaluate_many(roots, grid)]
        rows.extend(",".join(map(repr, row)) for row in zip(*columns))
    elif what == "eigen_residual":
        rows.append("r,residual_abs")
        kappa = 0.1 / mass
        re_f, im_f = separable_radial_residual(kappa, ex.ONE, 0.0, model, inputs.potential)
        psi = phase_section(kappa)
        radii = _geomspace(2.2 * mass, 20.0 * mass, 60)
        line = {"u": math.pi / 2, "v": math.pi, "r": radii, "t": 0.0, "m": mass}
        values = zip(*ex.evaluate_many([re_f, im_f, psi.re, psi.im], line))
        # |(a + ib)(c + id)| multiplied out by hand, so that the rounding
        # is that of these four products, whatever complex product a
        # platform's libraries use
        residual = [math.hypot(a * c - b * d, a * d + b * c) for a, b, c, d in values]
        rows.extend(f"{r!r},{value!r}" for r, value in zip(radii, residual))

    target.write_text("\n".join(rows) + "\n")
    return target
