"""Smoke tests for the sweep scripts: each runs as a user runs it, at a small
size, and must exit 0 and print its summary line; bad input exits 2 with a
usage message."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name, args, summary", [
    ("rate_sweep.py", ["--n-max", "100000"],
     r"^m= 0\.500 regime=slow +fitted slope=[+-]\d\.\d{4} predicted growth n\^\+0\.5000"),
    ("coupling_gap_sweep.py", ["--reps", "50"],
     r"^log-gap slope [+-]\d\.\d{4} vs log\(rho\) -0\.1054$"),
])
def test_script_runs(name, args, summary):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert re.search(summary, proc.stdout, re.MULTILINE), proc.stdout


@pytest.mark.parametrize("name, args, message", [
    ("rate_sweep.py", ["--n-min", "1000", "--n-max", "1001"],
     "[1000, 1001] holds 0 lattice point(s); a slope needs two"),
    ("coupling_gap_sweep.py", ["--qs", "8"],
     "a slope needs two distinct block lengths, got [8]"),
])
def test_script_refuses_a_slope_of_fewer_than_two_points(name, args, message):
    assert_usage_error(run_script(name, *args), message)


@pytest.mark.parametrize("name, args, message", [
    ("rate_sweep.py", ["--r", "2"], "--r must be > 2 and finite, got 2.0"),
    ("rate_sweep.py", ["--r", "1"], "--r must be > 2 and finite, got 1.0"),
    ("coupling_gap_sweep.py", ["--qs", "8,x"],
     "argument --qs: invalid block_lengths value: '8,x'"),
    ("coupling_gap_sweep.py", ["--reps", "1"],
     "reps must be >= 2 for a standard error, got 1"),
])
def test_script_refuses_bad_input_as_a_usage_error(name, args, message):
    assert_usage_error(run_script(name, *args), message)


def assert_usage_error(proc, message):
    assert proc.returncode == 2 and message in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
