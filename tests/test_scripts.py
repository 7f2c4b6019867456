"""Experiment scripts: argument checks."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import inertia_market
from inertia_market import AuditError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
AUDIT_SWEEP = SCRIPTS / "audit_sweep.py"
GAMMA_TRADEOFF = SCRIPTS / "gamma_tradeoff.py"


def run_script(*argv):
    src = str(Path(inertia_market.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, env=env)


def assert_usage_error(proc, flag, message):
    assert proc.returncode == 2, proc.stderr
    assert "usage:" in proc.stderr
    assert f"argument {flag}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


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
    proc = run_script(AUDIT_SWEEP, "--instances", "1", "--trials", "1", flag, value)
    assert_usage_error(proc, flag, message)


def test_audit_sweep_dumps_a_violating_instance(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("audit_sweep", AUDIT_SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    instance = {"trial": 0, "agent": "a0", "m0": [1.5], "u_dev": 1.0}

    def violate(*args, **kwargs):
        raise AuditError("truthful bidding lost 1.000e+00", instance=instance)

    monkeypatch.setattr(sweep, "incentive_audit", violate)
    monkeypatch.setattr(sys, "argv", [str(AUDIT_SWEEP), "--instances", "2", "--trials", "1"])
    assert sweep.main() == 1
    captured = capsys.readouterr()
    headline, dump = captured.err.split("\n", 1)
    assert headline == "instance 0: VIOLATION: truthful bidding lost 1.000e+00"
    assert yaml.safe_load(dump) == instance
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--points", "0", "must be at least 1, got 0"),
        ("--gamma-min", "0", "must be positive and finite, got 0"),
        ("--gamma-max", "inf", "must be positive and finite, got inf"),
    ],
    ids=["points-0", "gamma-min-0", "gamma-max-inf"],
)
def test_gamma_tradeoff_bad_sweep_is_a_usage_error(flag, value, message):
    # Zero points used to print only the CSV header, and a zero gamma bound
    # died in a numpy traceback.
    assert_usage_error(run_script(GAMMA_TRADEOFF, flag, value), flag, message)
