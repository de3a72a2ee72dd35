"""Every demo script runs to completion from a scratch working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_estimate_heritability.py",
        "02_marchenko_pastur.py",
        pytest.param("03_monte_carlo_study.py", marks=pytest.mark.slow),
        pytest.param("04_sparse_effects.py", marks=pytest.mark.slow),
    ],
)
def test_demo_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
