"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_child_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9].
    t = tracer.Tracer("r", clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    t.enter("a")
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("d")
    t.exit()
    t.exit()
    assert dict(t.self_s) == {"a": 3, "b": 2, "c": 1, "d": 4}
    assert dict(t.total_s) == {"a": 10, "b": 3, "c": 1, "d": 4}
    parents = {name: parent for _, name, _, _, parent, _ in t.spans}
    ids = {name: span_id for span_id, name, _, _, _, _ in t.spans}
    assert parents == {"a": None, "b": ids["a"], "c": ids["b"], "d": ids["a"]}
    assert {request for *_, request in t.spans} == {"r"}


def test_hot_spans_are_folded_not_kept():
    t = tracer.Tracer(clock=fake_clock([0, 1, 2, 3]))
    t.enter("cli.main")
    t.enter("expressions.evaluate")
    t.exit()
    t.exit()
    assert [span[1] for span in t.spans] == ["cli.main"]
    assert t.calls["expressions.evaluate"] == 1 and t.self_s["cli.main"] == 2


def test_missing_functions_are_reported_absent(monkeypatch):
    cli = types.ModuleType("fakepkg.cli")
    cli.main = lambda argv=None: 0
    user = types.ModuleType("fakepkg.user")
    user.main = cli.main  # imported by name elsewhere
    monkeypatch.setitem(sys.modules, "fakepkg.cli", cli)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    t = tracer.Tracer()
    absent, expression_type = tracer.install(t, package="fakepkg")
    assert expression_type is None
    assert "cli.main" not in absent and "expressions.Expression.evaluate" in absent
    assert "suite.run_suite" in absent and "suite.commutator_suite" in absent
    assert user.main is cli.main and cli.main() == 0
    assert t.calls["cli.main"] == 1


def test_node_counts_by_identity_and_structure():
    from warpsymp import expressions as ex

    x = ex.sin(ex.U)
    root = ex.add(ex.mul(x, x), ex.mul(ex.sin(ex.U), ex.R))
    counts = tracer.node_counts([(root, 2)], ex.Expression)
    # sum, two products, two separate sin(u) nodes, u, r
    assert counts["expressions.dag_nodes"] == 7
    assert counts["expressions.distinct_nodes"] == 6
    assert counts["expressions.nodes_evaluated"] == 14


def test_metric_names_are_well_formed_and_match_the_spec():
    spec_names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(spec_names) == len(set(spec_names))
    assert all(NAME.fullmatch(name) for name in spec_names)

    empty = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {}, "spans": [], "absent": []}
    outcome = run.Outcome(1.0, run.Verdict(), 0.1, 1024, empty, 1.0)
    rounds = [run.Round(True, [outcome]), run.Round(False, [outcome])]
    layers, _, problems = run.per_layer(rounds)
    assert problems == []
    assert [(n, u) for n, (_, u) in layers.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    residuals = [("x", 1e-9, 1e-11, False)]
    ends = run.end_to_end(rounds, residuals, 0)
    assert [(n, u) for n, (_, u, _) in ends.items() if n not in run.BENCHMARK_EXTRAS] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(NAME.fullmatch(name) for name in ends)
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_times_are_rescaled_by_the_host_probe():
    slow = run.Outcome(3.0, run.Verdict(), 0.2, 1024, None, run.HOST_REFERENCE_S * 2)
    fast = run.Outcome(1.0, run.Verdict(), 0.2, 1024, None, run.HOST_REFERENCE_S / 2)
    metrics = run.end_to_end([run.Round(False, [slow, fast])], [], 0)
    assert abs(metrics["run_s"][0] - 1.75) < 1e-12 and metrics["run_wall_s"][0] == 2.0
    assert abs(metrics["setup_s"][0] - 0.25) < 1e-12 and metrics["setup_wall_s"][0] == 0.2


def test_host_probe_reports_its_work():
    work_s = run.run_host_probe(run.child_env())
    assert 0.0 < work_s < run.REQUEST_TIMEOUT_S


def test_seed_changes_inputs_and_repeats_them():
    for make in run.WORKLOADS.values():
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_repeated_seed_repeats_counts():
    request = run.Request("checks", ("check", "hamiltonian_u", "--samples", "10", "--seed", "3"),
                          ("hamiltonian_u",))
    env = run.child_env()
    outcomes = [run.run_request(request, True, str(i), env) for i in range(2)]
    assert all(o.verdict.problems == [] for o in outcomes)
    counts = [run.layer_metrics([o.trace])[0] for o in outcomes]
    assert counts[0] == counts[1]
    assert counts[0]["hamiltonian.lu_solve.calls"] == 40
    assert counts[0]["suite.group.useful_ratio"] == 1.0


def test_tiny_sphere_quadrature_request():
    request = run.Request("integrate", ("integrate", "--nu", "4", "--nv", "8", "--r0", "3.5"))
    outcome = run.run_request(request, False, "0", run.child_env())
    assert outcome.verdict.problems == []
    assert outcome.setup_s > 0 and outcome.rss_kb > 0
    assert run.headroom(outcome.verdict.residuals)[0] > 0


def test_tail_and_headroom():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50.0, 9)
    residuals = [
        ("upper", 1e-9, 1e-11, False),
        ("lower", 1e-6, 1e-5, True),
        ("zero_residual", 1e-9, 0.0, False),
        ("zero_threshold", 0.0, 1.0, False),
    ]
    value, name = run.headroom(residuals)
    assert name == "lower" and abs(value - 1.0) < 1e-12


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = SPEC["command"] + ["--workload", "sphere_quadrature", "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
