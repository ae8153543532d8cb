"""Guard for the benchmark's traced run: every check group it traces must be
reachable through the suite module, or its per-group metrics read zero."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_check_finds_every_target():
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/child.py",
            "src",
            "1",
            "0",
            "--",
            "check",
            "gradient_relation",
            "--samples",
            "10",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    assert result["trace"]["absent"] == []
    assert result["trace"]["calls"]["suite.group.gradient"] == 1
