"""Guard for the benchmark's traced run: every check group it traces must be
reachable through the suite module, or its per-group metrics read zero."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_traced(*cli_args):
    completed = subprocess.run(
        [sys.executable, "perfbench/child.py", "src", "1", "0", "--", *cli_args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_traced_check_finds_every_target():
    result = run_traced("check", "gradient_relation", "--samples", "10")
    assert result["exit_code"] == 0
    assert result["trace"]["absent"] == []
    assert result["trace"]["calls"]["suite.group.gradient"] == 1


def test_traced_verify_runs_every_group(tmp_path):
    result = run_traced("verify", "--samples", "10", "--sections", "1", "--out", str(tmp_path))
    assert result["exit_code"] == 0
    assert result["trace"]["absent"] == []
    calls = result["trace"]["calls"]
    for group in ("commutators", "bracket", "operators"):
        assert calls[f"suite.group.{group}"] == 1
