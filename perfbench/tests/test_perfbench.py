"""Checks of the benchmark itself: tracing leaves every output byte-identical,
the bypass property holds by count, and the runner refuses a directory
without sources.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from run import DIGESTS, REFERENCE_SEED  # noqa: E402
from tracer import KINDS, Tracer  # noqa: E402


def _digests(ops) -> dict[str, str]:
    return {f"{op.name}/{k}": workloads.digest(v)
            for op in ops for k, v in op.run().items()}


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    """Digests of one untraced and one traced pass at the reference seed."""
    ops = workloads.build(request.param, REFERENCE_SEED,
                          tmp_path_factory.mktemp(request.param))
    untraced = _digests(ops)
    tracer = Tracer()
    with tracer:
        traced_digests = _digests(ops)
    return request.param, untraced, traced_digests, tracer.layer_metrics()


def test_tracing_leaves_outputs_byte_identical(traced):
    _, untraced, traced_digests, _ = traced
    assert traced_digests == untraced


def test_reference_digests_match_record(traced):
    workload, untraced, _, _ = traced
    recorded = json.loads(DIGESTS.read_text())["reference"][workload]
    assert untraced == recorded


def test_bypass_property_by_count(traced):
    workload, _, _, m = traced
    if workload == "exact":
        assert all(m[f"processes.path_steps.{k}"] == 0 for k in KINDS)
        assert all(m[f"coupling.replica_blocks.{k}"] == 0 for k in KINDS)
        assert m["chaining.partitions"] > 0 and m["grid.schedule.calls"] > 0
        assert m["rates.lattice_points"] == 5 * len(workloads.lattice(*workloads.RATE_RANGE))
    elif workload == "montecarlo":
        assert m["chaining.partitions"] == 0 and m["grid.schedule.calls"] == 0
        assert m["mixing.theta.calls"] == 0
        assert all(m[f"processes.path_steps.{k}"] > 0 for k in ("ar1", "ma", "lazy_renewal"))
        assert m["mixing.tau_draws"] > 0
    else:
        assert all(m[f"acceptance.A{i}.s"] > 0 for i in range(1, 15))
        assert m["chaining.partitions"] > 0 and m["processes.path_steps.ar1"] > 0


def test_uninstall_restores_every_binding():
    from mixbound import chaining, function_classes, mixing, norms

    before = (chaining.dependence_norm, mixing.MixingProfile.theta,
              vars(norms.QuantileCurve)["from_discrete"],
              dict(function_classes._MEMBER_DEFS), chaining.partitions_into_at_most)
    with Tracer():
        assert chaining.dependence_norm is not before[0]
    after = (chaining.dependence_norm, mixing.MixingProfile.theta,
             vars(norms.QuantileCurve)["from_discrete"],
             dict(function_classes._MEMBER_DEFS), chaining.partitions_into_at_most)
    assert after == before


def test_refuses_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
