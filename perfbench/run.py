"""Benchmark of the warpsymp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each request is one ``warpsymp`` command
run through ``warpsymp.cli.main`` in a fresh interpreter (``child.py``), so
every request pays import cost and cold caches as a command-line user does.
The load is a closed loop: one client, one request at a time.

A round is the workload's fixed list of requests, all made from the seed;
rounds repeat until the next one would end after S seconds (at least two
rounds, and with tracing at least two traced rounds and one untraced round,
traced rounds first and alternating).  Every request's verdict is checked
against a known answer, and the report bodies of same-seed ``verify``
requests must be byte-identical.

The host's speed drifts by tens of percent within minutes.  ``hostprobe.py``
runs before the first request and after every request: about a second of
fixed work of the kind a request does, in a fresh interpreter and in code
that shares nothing with warpsymp.  Each request's seconds, and its set-up
seconds, are rescaled by HOST_REFERENCE_S over the mean of the probes on
either side of it: they read as seconds on a host where the probe takes
HOST_REFERENCE_S.  run_s is the median over rounds of the round's mean
rescaled seconds per request, and setup_s the median of the rescaled
set-up seconds.  The raw medians are printed beside them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, and the line before it holds, as JSON, the figures
that are printed but kept out of the result; with ``--trace 1`` the last
line holds the per-layer metrics of the traced rounds, whose spans are
written to ``.perfbench_work/`` at the end.  Exit status: 0 when every
verdict is right, 1 when one is wrong, 2 when the program cannot be set up
(no result is printed then).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import GROUP_PREFIX, GROUPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REPORT_DIR = WORK / "out"
CHILD = HERE / "child.py"
HOST_PROBE = HERE / "hostprobe.py"
SETUP_FAILED = 97
REQUEST_TIMEOUT_S = 150.0
# Typical hostprobe.py work seconds on the 2-vCPU x86-64 host the baseline
# was measured on; any fixed value serves, as both sides of a comparison use it.
HOST_REFERENCE_S = 0.75

CHECK_LINE = re.compile(
    r"^\[(PASS|FAIL|REPORT)\] (\w+): worst=(\S+) threshold=(\S+)$", re.MULTILINE
)
INTEGRAL_LINE = re.compile(r"^integral=(\S+) mass=(\S+) ", re.MULTILINE)

COMMUTATORS = tuple(f"commutator_{pair}" for pair in ("uv", "ur", "ut", "vr", "vt", "rt"))
IDENTITY_CHECKS = (
    "gradient_relation",
    "observer_unit_norm",
    "flux_wedge_square",
    "foliation_leaf_pfaffian",
    "closed_rescaled_flux",
    "hamiltonian_u",
    "bracket_uv",
    "connection_curvature_potential",
)
# Checks whose pass condition is worst > threshold (a lower bound).
LOWER_BOUND_CHECKS = frozenset({"foliation_leaf_pfaffian", "foliation_volume_form"})
ASSERTABLE_IN_VERIFY = 34
PRINTED_RELATIONS = ("operator_printed_area_relation", "operator_printed_volume_relation")
SPHERE_TOLERANCE = 1e-10
MASS = 1.0


# ---------------------------------------------------------------------------
# Workloads: each is a function from the seed to one round of requests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str  # verify | checks | integrate
    argv: tuple
    expected: tuple = ()  # check names that must print [PASS]


def verify_default(seed):
    return [Request("verify", ("verify", "--seed", str(seed), "--out", str(REPORT_DIR)))]


def prequant_commutators(seed):
    argv = ("prequant", "--commutators", "--sections", "1", "--seed", str(seed))
    return [Request("checks", argv, COMMUTATORS)]


def sphere_quadrature(seed):
    r0 = random.Random(seed).uniform(2.5 * MASS, 10.0 * MASS)
    return [Request("integrate", ("integrate", "--nu", "128", "--nv", "256", "--r0", repr(r0)))]


def identities_dense(seed):
    return [
        Request("checks", ("check", name, "--samples", "2000", "--seed", str(seed)), (name,))
        for name in IDENTITY_CHECKS
    ]


WORKLOADS = {
    "verify_default": verify_default,
    "prequant_commutators": prequant_commutators,
    "sphere_quadrature": sphere_quadrature,
    "identities_dense": identities_dense,
}

# ---------------------------------------------------------------------------
# Verdicts.  A residual is (check name, threshold, worst error, lower bound?).
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    body: str | None = None


def judge(request, exit_code, output):
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
    if request.kind == "verify":
        _judge_verify(verdict)
    elif request.kind == "checks":
        _judge_checks(request, output, verdict)
    else:
        _judge_integral(output, verdict)
    return verdict


def _judge_verify(verdict):
    try:
        body = json.loads((REPORT_DIR / "report.json").read_text())["body"]
        (REPORT_DIR / "report.json").unlink()
    except (OSError, ValueError, KeyError) as err:
        verdict.problems.append(f"no report body: {err}")
        return
    verdict.body = json.dumps(body, sort_keys=True, indent=2)
    checks = {check["check_name"]: check for check in body["checks"]}
    assertable = [check for check in checks.values() if check["assertable"]]
    if len(assertable) != ASSERTABLE_IN_VERIFY:
        verdict.problems.append(f"{len(assertable)} assertable checks, not {ASSERTABLE_IN_VERIFY}")
    verdict.problems += [f"{c['check_name']} failed" for c in assertable if not c["pass"]]
    for name in PRINTED_RELATIONS:
        if not checks.get(name, {}).get("worst_error", 0.0) > 0.1:
            verdict.problems.append(f"{name} residual is not above 0.1")
    try:
        weil = checks["integrality_class"]["details"]["weil_normalized_class"]["class"]
    except KeyError:
        verdict.problems.append("integrality_class has no Weil class")
    else:
        if abs(weil - round(weil)) < 1e-3:
            verdict.problems.append(f"Weil class {weil!r} is an integer")
    verdict.residuals = [
        (c["check_name"], c["threshold"], c["worst_error"], c["check_name"] in LOWER_BOUND_CHECKS)
        for c in assertable
    ]


def _judge_checks(request, output, verdict):
    printed = {}
    for status, name, worst, threshold in CHECK_LINE.findall(output):
        printed[name] = status
        if status != "REPORT":
            verdict.residuals.append(
                (name, float(threshold), float(worst), name in LOWER_BOUND_CHECKS)
            )
    verdict.problems += [f"{name} printed {s}" for name, s in printed.items() if s == "FAIL"]
    verdict.problems += [f"{name} not passed" for name in request.expected if printed.get(name) != "PASS"]


def _judge_integral(output, verdict):
    match = INTEGRAL_LINE.search(output)
    if match is None:
        verdict.problems.append("no integral printed")
        return
    integral, mass = float(match.group(1)), float(match.group(2))
    deviation = abs(integral - MASS)
    if mass != MASS or not deviation < SPHERE_TOLERANCE:
        verdict.problems.append(f"integral {integral!r} is not the mass {MASS!r}")
    # A zero difference means the sum equals the mass to the last bit: its
    # error is then below half an ulp of the mass.
    verdict.residuals.append(
        ("sphere_integral", SPHERE_TOLERANCE, max(deviation, math.ulp(MASS) / 2), False)
    )


def headroom(residuals):
    """Minimum over checks of log10(threshold / worst), or worst / threshold
    for lower bounds, skipping zero residuals and zero thresholds."""
    best = None
    for name, threshold, worst, lower in residuals:
        if threshold <= 0.0 or worst <= 0.0:
            continue
        value = math.log10(worst / threshold if lower else threshold / worst)
        if best is None or value < best[0]:
            best = (value, name)
    return best


# ---------------------------------------------------------------------------
# Running requests
# ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    """The program under test cannot be imported or started."""


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


@dataclass
class Outcome:
    wall_s: float
    verdict: Verdict
    setup_s: float | None = None
    rss_kb: int | None = None
    trace: dict | None = None
    host_s: float | None = None  # mean work seconds of the probes on either side


def run_request(request, traced, request_id, env):
    command = [sys.executable, str(CHILD), str(SRC), "1" if traced else "0", request_id, "--"]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command + list(request.argv),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=REQUEST_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        failed = Verdict([f"timed out after {REQUEST_TIMEOUT_S} s"])
        return Outcome(time.perf_counter() - started, failed)
    wall_s = time.perf_counter() - started
    if done.returncode == SETUP_FAILED:
        raise SetupError(done.stderr.strip())
    output, _, last = done.stdout.rstrip("\n").rpartition("\n")
    try:
        result = json.loads(last)
    except ValueError:
        tail = done.stderr.strip().splitlines()[-3:]
        return Outcome(wall_s, Verdict([f"child exited {done.returncode}: {tail}"]))
    verdict = judge(request, result["exit_code"], output)
    return Outcome(wall_s, verdict, result["setup_s"], result["rss_kb"], result.get("trace"))


def run_host_probe(env):
    """Work seconds of one hostprobe.py run."""
    done = subprocess.run(
        [sys.executable, str(HOST_PROBE)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=REQUEST_TIMEOUT_S,
    )
    done.check_returncode()
    return json.loads(done.stdout)["work_s"]


@dataclass
class Round:
    traced: bool
    outcomes: list

    @property
    def wall_s(self):
        return sum(outcome.wall_s for outcome in self.outcomes)

    @property
    def per_request_s(self):
        return self.wall_s / len(self.outcomes)

    @property
    def rescaled_s(self):
        return statistics.mean(o.wall_s * HOST_REFERENCE_S / o.host_s for o in self.outcomes)


def measure(requests, seconds, trace, env):
    rounds = []
    started = time.perf_counter()
    probe_s = run_host_probe(env)
    while True:
        traced = trace and len(rounds) % 2 == 0
        index = len(rounds)
        begun = time.perf_counter()
        outcomes = []
        for position, request in enumerate(requests):
            outcome = run_request(request, traced, f"{index}.{position}", env)
            after_s = run_host_probe(env)
            outcome.host_s = (probe_s + after_s) / 2
            probe_s = after_s
            outcomes.append(outcome)
        rounds.append(Round(traced, outcomes))
        traced_rounds = sum(r.traced for r in rounds)
        enough = len(rounds) >= (3 if trace else 2) and (not trace or traced_rounds >= 2)
        now = time.perf_counter()
        if enough and now - started + (now - begun) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def end_to_end(rounds, residuals, failed):
    """End-to-end metrics, as name -> (value, unit, note).  All are printed;
    those not in BENCHMARK_EXTRAS also go into the result line."""
    measured = [o for r in rounds for o in r.outcomes if o.setup_s is not None]
    setups = [o.setup_s * HOST_REFERENCE_S / o.host_s for o in measured]
    rss = [max(o.rss_kb or 0 for o in r.outcomes) for r in rounds]
    # Per round, not per request: identities_dense's eight checks differ in
    # cost, so a median over its requests would move only with the middle one.
    samples = [r.rescaled_s for r in rounds]
    raw = [r.per_request_s for r in rounds]
    setup_s = statistics.median(setups) if setups else 0.0
    setup_wall_s = statistics.median(o.setup_s for o in measured) if setups else 0.0
    attempted = sum(len(r.outcomes) for r in rounds)
    slowest = tail(samples)
    best = headroom(residuals)
    return {
        "run_s": (statistics.median(samples), "s",
                  f"median of {len(samples)} rounds of seconds per request, rescaled"),
        "setup_s": (setup_s, "s", f"median of {len(setups)} requests, rescaled"),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB",
                        "median over rounds of the largest child ru_maxrss"),
        "run_s.tail": (slowest[1] if slowest else None, "s",
                       f"p{slowest[0]:.1f} of {len(samples)} rounds" if slowest
                       else f"{len(samples)} rounds, needs 11"),
        "failed_share": (failed / attempted, "ratio", f"{failed} of {attempted} requests"),
        "headroom_min_log10": (best[0] if best else None, "log10",
                               f"tightest check {best[1]}" if best else "no nonzero residual"),
        "run_wall_s": (statistics.median(raw), "s",
                       "not rescaled; rounds " + " ".join(f"{v:.3f}" for v in raw)),
        "setup_wall_s": (setup_wall_s, "s", "not rescaled"),
        "host_probe_s": (statistics.median(o.host_s for r in rounds for o in r.outcomes), "s",
                         "median over requests of the probe work seconds"),
    }


# Printed with the end-to-end metrics but kept out of the result line: with
# a few rounds per run there is no tail percentile, failed_share is 0 on
# correct code, the headroom is fixed by the seed's sample points, so its
# spread over seeds is not run-to-run noise, and the raw times carry the
# host's drift.
BENCHMARK_EXTRAS = (
    "run_s.tail", "failed_share", "headroom_min_log10", "run_wall_s", "setup_wall_s",
    "host_probe_s",
)


CALL_LAYERS = (
    "expressions.evaluate",
    "expressions.diff",
    "exterior.ops",
    "exterior.form_eval",
    "hamiltonian.field",
    "hamiltonian.bracket",
    "hamiltonian.lu_solve",
    "prequantum.operator_build",
    "prequantum.section_eval",
)
COUNTERS = (
    "expressions.nodes_evaluated",
    "expressions.dag_nodes",
    "expressions.distinct_nodes",
    "hamiltonian.quadrature.nodes",
    "sampling.points",
)


def layer_metrics(traces):
    """Per-layer metrics of one round from its requests' traces.  Returns
    (counts, timings): counts must repeat exactly between rounds."""
    calls, self_s, total_s, counts = {}, {}, {}, {}
    for trace in traces:
        for source, target in (
            (trace["calls"], calls),
            (trace["self_s"], self_s),
            (trace["total_s"], total_s),
            (trace["counts"], counts),
        ):
            for name, value in source.items():
                target[name] = target.get(name, 0) + value
    count = {f"{layer}.calls": calls.get(layer, 0) for layer in CALL_LAYERS}
    count.update({name: counts.get(name, 0) for name in COUNTERS})
    dag = count["expressions.dag_nodes"]
    count["expressions.sharing_ratio"] = count["expressions.distinct_nodes"] / dag if dag else 1.0

    runs, needed = set(), set()
    for trace in traces:
        for span_id, name, start, end, parent, request_id in trace["spans"]:
            if name.startswith(GROUP_PREFIX):
                runs.add((request_id, parent, name))
                needed.add((request_id, name))
    count["suite.group.runs"] = len(runs)
    count["suite.group.useful_ratio"] = len(needed) / len(runs) if runs else 1.0

    timing = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in CALL_LAYERS}
    quadrature_s = total_s.get("hamiltonian.quadrature", 0.0)
    timing.update(
        {
            "spacetime.model_s": total_s.get("spacetime.model", 0.0),
            "spacetime.checks.self_s": self_s.get("spacetime.checks", 0.0),
            "hamiltonian.quadrature.self_s": self_s.get("hamiltonian.quadrature", 0.0),
            "hamiltonian.quadrature.nodes_per_s": (
                count["hamiltonian.quadrature.nodes"] / quadrature_s if quadrature_s else 0.0
            ),
            "sampling.self_s": self_s.get("sampling", 0.0),
            "suite.report.self_s": self_s.get("suite.report", 0.0),
            "cli.main.s": total_s.get("cli.main", 0.0),
        }
    )
    timing.update({f"{GROUP_PREFIX}{g}.s": total_s.get(GROUP_PREFIX + g, 0.0) for g in GROUPS})
    return count, timing


UNITS = (("per_s", "1/s"), (".calls", "count"), ("_s", "s"), (".s", "s"), ("_ratio", "ratio"))


def unit_of(name):
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(rounds):
    """Per-layer metrics from traced rounds, the notes to print, and the
    problems found (counts that differ between traced rounds)."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    measured = [layer_metrics([o.trace for o in r.outcomes if o.trace]) for r in traced]
    problems = [
        f"per-layer counts of traced round {i} differ from round 0"
        for i, (count, _) in enumerate(measured)
        if count != measured[0][0]
    ]
    metrics = {name: (value, unit_of(name)) for name, value in measured[0][0].items()}
    for name in measured[0][1]:
        metrics[name] = (statistics.median(t[name] for _, t in measured), unit_of(name))
    traced_s = statistics.median(r.per_request_s for r in traced)
    untraced_s = statistics.median(r.per_request_s for r in untraced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    absent = sorted({name for o in traced[0].outcomes if o.trace for name in o.trace["absent"]})
    notes = [f"traced rounds {len(traced)}, untraced rounds {len(untraced)}"]
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(absent))
    return metrics, notes, problems


def write_spans(rounds, workload, seed):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    keys = ("id", "name", "start", "end", "parent", "request")
    with path.open("w") as out:
        for r in rounds:
            for outcome in r.outcomes:
                for span in (outcome.trace or {}).get("spans", ()):
                    out.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "warpsymp" / "cli.py").is_file():
        print(f"perfbench: no warpsymp sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    requests = WORKLOADS[args.workload](args.seed)
    try:
        rounds = measure(requests, args.seconds, bool(args.trace), child_env())
    except SetupError as err:
        print(f"perfbench: cannot set up warpsymp: {err}", file=sys.stderr)
        return 2

    problems = []
    residuals = []
    first_body = None
    for r in rounds:
        for request, outcome in zip(requests, r.outcomes):
            verdict = outcome.verdict
            if verdict.body is not None:
                first_body = first_body or verdict.body
                if verdict.body != first_body:
                    verdict.problems.append("report body differs from the first same-seed body")
            problems += [f"{' '.join(request.argv)}: {p}" for p in verdict.problems]
            residuals += verdict.residuals
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(1 for r in rounds for o in r.outcomes if o.verdict.problems)

    extras = {}
    if args.trace:
        metrics, notes, count_problems = per_layer(rounds)
        problems += count_problems
        failed += len(count_problems)
        notes.append(f"spans written to {write_spans(rounds, args.workload, args.seed)}")
        reported = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
    else:
        notes = []
        reported = end_to_end(rounds, residuals, failed)
        metrics = {name: (value, unit) for name, (value, unit, _) in reported.items()
                   if name not in BENCHMARK_EXTRAS}
        extras = {name: reported[name][0] for name in BENCHMARK_EXTRAS}

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} requests, {failed} failed")
    for problem in problems:
        print(f"FAILED {problem}")
    for note in notes:
        print(note)
    for name, (value, unit, note) in reported.items():
        shown = "n/a" if value is None else value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {unit}" + (f"  ({note})" if note else ""))
    # The printed-only figures again, as JSON, for tools that read this output.
    print(json.dumps({"extras": extras}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
