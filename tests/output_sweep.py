"""Byte-identity sweep of the command-line outputs.

``python3 tests/output_sweep.py run OUT.json`` runs each command of
``COMMANDS`` through ``warpsymp.cli.main`` in a fresh interpreter, with this
checkout's ``src/`` on ``PYTHONPATH`` and an empty temporary directory as its
working directory.  For each command it records the exit code and the
SHA-256 digests of stdout, stderr and every file the command wrote.  The
wall time that ``verify`` prints (``in X s``) and the ``wall_time_seconds``
of ``report.json`` are masked first, since they differ from run to run.

``python3 tests/output_sweep.py compare A.json B.json`` names each command
whose record differs between two sweeps, such as one made at a parent commit
and one at a change, and exits 1 if any does.

Standard library only; pytest does not collect this file.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = (
    "check bracket_cross_zeros --seed 5",
    "check bracket_uv --samples 2000 --seed 3",
    "check closed_rescaled_flux --samples 2000 --seed 3",
    "check connection_curvature_potential --samples 2000 --seed 3",
    "check flux_wedge_square --samples 2000 --seed 3",
    "check foliation_leaf_pfaffian --samples 2000 --seed 3",
    "check gradient_relation --samples 2000 --seed 3",
    "check hamiltonian_u --samples 2000 --seed 3",
    "check jacobi_identity --seed 5",
    "check observer_unit_norm --samples 2000 --seed 3",
    "check sphere_integral_mass",
    "emit-csv bracket_grid --out .",
    "emit-csv eigen_residual --out .",
    "emit-csv integral_convergence --out .",
    "emit-csv omega_coefficient --out .",
    "integrate --nu 128 --nv 256 --r0 4.1234567",
    "integrate --nu 128 --nv 256 --r0 9.87654321",
    "prequant --commutators --operators --integrality --sections 2 --samples 30",
    "prequant --commutators --sections 1 --seed 11",
    "prequant --commutators --sections 1 --seed 3",
    "prequant --operators --integrality",
    "verify --out .",
    "verify --out . --mass 1e-200",
    "verify --out . --mass 1e-6",
    "verify --out . --mass 1e80",
    "verify --out . --mass 2 --seed 7 --samples 20 --sections 3",
    "verify --out . --scale-mode weil",
    "verify --out . --sections 100",
    "verify --out . --seed 3",
    "check hamiltonian_u --mass 1e300",
    "check symplectic_square_identity --mass 1e80",
    "prequant --commutators --mass 1e200",
    "check bracket_antisymmetry",
    "check observer_orthogonality",
    "verify --out . --mass 1e-3",
    "verify --out . --mass 1e6",
)

ENTRY = "import sys; from warpsymp.cli import main; sys.exit(main(sys.argv[1:]))"
WALL_TIME = re.compile(rb" in \d+\.\d+ s$", re.MULTILINE)
REPORT_WALL_TIME = re.compile(rb'"wall_time_seconds": [^,\n}]+')


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(command: str) -> dict:
    """The exit code and digests of one command's outputs."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", ENTRY, *shlex.split(command)],
            cwd=cwd, env=env, capture_output=True, check=False,
        )
        files = {}
        for path in sorted(Path(cwd).rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if path.name == "report.json":
                    data = REPORT_WALL_TIME.sub(b'"wall_time_seconds": X', data)
                files[str(path.relative_to(cwd))] = digest(data)
    return {
        "exit": done.returncode,
        "stdout": digest(WALL_TIME.sub(b" in X s", done.stdout)),
        "stderr": digest(done.stderr),
        "files": files,
    }


def run(out: str) -> int:
    records = {}
    for command in COMMANDS:
        records[command] = record(command)
        print(f"{records[command]['exit']}  {command}", flush=True)
    Path(out).write_text(json.dumps({"python": sys.version, "commands": records}, indent=1) + "\n")
    return 0


def compare(first: str, second: str) -> int:
    a, b = (json.loads(Path(name).read_text())["commands"] for name in (first, second))
    differing = [command for command in {**a, **b} if a.get(command) != b.get(command)]
    for command in differing:
        print(f"differs: {command}")
    print(f"{len(a.keys() | b.keys()) - len(differing)} identical, {len(differing)} differ")
    return 1 if differing else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "run":
        return run(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
