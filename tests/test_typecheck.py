"""mypy spot-check of the sweep and synthesis subsystems.

CI installs mypy via the ``test`` extra and this test gates the
annotations of ``repro.sweeps``, ``repro.simulator.openloop``,
``repro.synthesis`` and ``repro.eval.parallel`` (the modules whose
signatures the sweep artifacts and the portfolio cache keys depend
on).  The local toolchain may not carry mypy — the test skips rather
than fails, so a plain ``pytest`` run never needs network access.
``SPOT_CHECK`` names the scope; strictness lives in ``[tool.mypy]`` in
``pyproject.toml``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mypy", reason="mypy is a CI-only dependency")

ROOT = Path(__file__).resolve().parent.parent

SPOT_CHECK = (
    "src/repro/sweeps",
    "src/repro/simulator/openloop.py",
    "src/repro/synthesis",
    "src/repro/eval/parallel.py",
)


def test_sweep_subsystem_typechecks():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *SPOT_CHECK],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"mypy failed:\n{proc.stdout}\n{proc.stderr}"
