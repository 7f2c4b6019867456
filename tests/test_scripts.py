"""Experiment scripts: argument checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import inertia_market

AUDIT_SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "audit_sweep.py"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param(flag, "0", "must be at least 1, got 0", id=flag)
        for flag in ("--instances", "--trials", "--max-buses", "--max-agents")
    ]
    + [pytest.param("--seed", "-1", "must be at least 0, got -1", id="--seed")],
)
def test_audit_sweep_zero_count_is_a_usage_error(flag, value, message):
    # Each of these used to run on into a GridError or numpy ValueError
    # traceback, or, for zero instances, a "worst violation -inf" line.
    src = str(Path(inertia_market.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(AUDIT_SWEEP), "--instances", "1", "--trials", "1", flag, value],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "usage:" in proc.stderr
    assert f"argument {flag}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
