"""Repeat the benchmark over seeds, summarise how steady it is, and write
the record to ``perfbench/baseline.json``.

    python3 perfbench/steadiness.py

Runs ``run.py`` once per seed in SEEDS and workload in BENCHMARK.json,
interleaving the workloads and rotating their order from seed to seed, so
slow drift of the host spreads over every workload instead of landing on
one.  It then makes TRACED_RUNS traced runs per workload on the first seed.
For every end-to-end metric, and for the figures run.py prints but keeps
out of its result line, it records the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median, with the
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import GROUP_PREFIX

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "baseline.json"
SEEDS = range(1, 11)
TRACED_RUNS = 2


def run_once(command, workload, seed, seconds, trace):
    """The run's result-line metrics, and with trace 0 its printed-only figures."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    metrics = {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}
    extras = json.loads(lines[-2])["extras"]
    return metrics, {name: value for name, value in extras.items() if value is not None}


def summary(values, bound=None):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    entry = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        entry["bound"] = bound
    return entry


def host():
    return (f"{os.cpu_count()} CPUs ({platform.machine()}), Linux {platform.release()}, "
            f"Python {platform.python_version()}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(SEEDS)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for index, seed in enumerate(seeds):
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            metrics, extras = run_once(spec["command"], workload, seed, seconds, 0)
            runs[workload].append((metrics, extras))
            print(f"seed {seed} {workload} " + " ".join(
                f"{k}={v:.5g}" for k, v in {**metrics, **extras}.items()), flush=True)

    record = {"host": host(), "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        entry = {"end_to_end": {}, "printed_only": {}}
        for name, bound in bounds.items():
            values = [metrics[name] for metrics, _ in runs[workload]]
            entry["end_to_end"][name] = stats = summary(values, bound)
            if name != "setup_s":
                worst = max(worst, stats["spread"] / bound)
            print(f"{workload:22s} {name:20s} median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} "
                  f"spread {stats['spread']:.4f} (bound {bound})")
        for name in runs[workload][0][1]:
            values = [extras[name] for _, extras in runs[workload] if name in extras]
            entry["printed_only"][name] = stats = summary(values)
            print(f"{workload:22s} {name:20s} median {stats['median']:.5g} "
                  f"spread {stats['spread']:.4f} (printed only)")
        traced = [run_once(spec["command"], workload, seeds[0], seconds, 1)[0]
                  for _ in range(TRACED_RUNS)]
        entry["traced_seed"] = seeds[0]
        entry["per_layer_median"] = {
            name: statistics.median(t[name] for t in traced) for name in traced[0]
        }
        entry["counts_repeat"] = all(
            all(t[n] == traced[0][n] for n in traced[0] if not n.endswith(("_s", ".s")))
            for t in traced
        )
        groups = {n[len(GROUP_PREFIX):-2]: v for n, v in entry["per_layer_median"].items()
                  if n.startswith(GROUP_PREFIX) and n.endswith(".s")}
        entry["suite_group_s"] = groups
        main_s = entry["per_layer_median"]["cli.main.s"]
        entry["group_share_of_cli_main"] = {g: v / main_s for g, v in groups.items() if v}
        record["workloads"][workload] = entry
    print(f"largest spread / bound (setup_s excepted): {worst:.3f}")
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
