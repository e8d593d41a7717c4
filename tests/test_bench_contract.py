"""The names and argument names the benchmark's tracer binds from outside.

``perfbench/tracer.py`` rebinds these functions by name and reads their
arguments by name to count the work done: path steps, replica blocks, tau
draws, partitions, norm and curve evaluations, member evaluations and
criterion seconds.  A rename here would break the benchmark, not this suite,
so the contract is pinned in the fast tests.

The benchmark's setup step also reads the program from outside: it times a
fresh interpreter running ``import mixbound.cli`` and ``cli._build_parser()``,
and ``perfbench/run.py`` indexes the ``scipy.stats`` and ``scipy.special``
entries of that interpreter's ``-X importtime`` log.  Deferring either import
past ``import mixbound.cli`` fails the benchmark with a ``KeyError``.
"""
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixbound import (acceptance, chaining, cli, coupling, function_classes, mixing,
                      norms, processes, report)

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("fn, leading", [
    (processes._simulate_core, ("model", "n", "reps")),
    (coupling.replicate_many, ("model", "values", "innovations", "q")),
])
def test_hooked_functions_keep_their_leading_arguments(fn, leading):
    assert tuple(inspect.signature(fn).parameters)[:len(leading)] == leading


def test_estimate_tau_keeps_its_draw_counts():
    names = tuple(inspect.signature(mixing.estimate_tau).parameters)
    i = names.index("q")
    assert names[i:i + 3] == ("q", "outer_reps", "inner_reps")


def test_counted_names_exist():
    assert chaining.dependence_norm is norms.dependence_norm
    assert inspect.isgeneratorfunction(chaining.partitions_into_at_most)
    assert callable(report.dumps_canonical)
    assert callable(report.ExperimentReport.to_json)
    assert callable(mixing.MixingProfile.theta)
    assert callable(chaining.NormFamily.norm)
    for attr in ("from_discrete", "constant"):
        assert isinstance(vars(norms.QuantileCurve)[attr], classmethod)


def test_member_table_holds_callable_sup_lipschitz_triples():
    assert function_classes._MEMBER_DEFS
    for func, sup, lip in function_classes._MEMBER_DEFS.values():
        assert callable(func)
        assert sup is None or isinstance(sup, float)
        assert lip is None or isinstance(lip, float)


def test_every_criterion_is_a_module_function():
    functions = {name: fn for name, fn in vars(acceptance).items()
                 if name.startswith("criterion_") and inspect.isfunction(fn)}
    assert len(functions) == 14
    assert sorted(map(id, acceptance.CRITERIA.values())) == sorted(map(id, functions.values()))


def test_setup_builds_the_parser_without_arguments():
    assert cli._build_parser().prog == "mixbound"


def test_cli_import_loads_the_scipy_modules_setup_times():
    code = ("import sys, mixbound.cli; "
            "print(all(m in sys.modules for m in ('scipy.stats', 'scipy.special')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
