import argparse
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixbound import cli
from mixbound import chaining, coupling, grid, mixing, norms, processes

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


COUPLE = ["couple", "--process", "ma:m=3", "--class", "lipschitz5", "--n", "96",
          "--q", "6", "--reps", "30"]


def test_schedule_json(capsys, tmp_path):
    code, out = run_cli(capsys, "schedule", "--n", "12", "--profile", "poly:m=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12
    assert payload["divisors"] == [1, 2, 3, 4, 6, 12]
    assert payload["q_seq"][0] == 2


def test_schedule_rejects_non_member(capsys):
    with pytest.raises(SystemExit, match="nearest member"):
        cli.main(["schedule", "--n", "13", "--profile", "iid"])


def _config_usage_error(capsys, tmp_path, config, *argv):
    """The exit code and stderr of a call whose config is a usage error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), *argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


def test_unknown_config_field(capsys, tmp_path):
    code, err = _config_usage_error(capsys, tmp_path, {"bogus_field": 3},
                                    "schedule", "--n", "12", "--profile", "iid")
    assert code == 2 and "unrecognized arguments: --bogus-field=3" in err
    # A prefix of a long name is not the name.
    code, err = _config_usage_error(capsys, tmp_path, {"prof": "iid"},
                                    "schedule", "--n", "12", "--profile", "iid")
    assert code == 2 and "unrecognized arguments: --prof=iid" in err


def test_config_provides_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"profile": "poly:m=1"}')
    code, out = run_cli(capsys, "--config", str(cfg), "schedule", "--n", "12")
    assert code == 0
    assert json.loads(out)["q_seq"][0] == 2


def test_config_overrides_argparse_default(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"reps": 40}')
    rows = tmp_path / "sims.csv"
    code, out = run_cli(capsys, "--config", str(cfg), "simulate", "--process", "iid",
                        "--class", "lipschitz5", "--n", "96", "--output", str(rows))
    assert code == 0
    assert json.loads(out)["reps"] == 40
    assert len(list(csv.DictReader(rows.open()))) == 40


def test_explicit_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"reps": 40, "seed": 3}')
    code, out = run_cli(capsys, "--config", str(cfg), "simulate", "--process", "iid",
                        "--class", "lipschitz5", "--n", "96", "--reps", "30",
                        "--seed", "5", "--output", str(tmp_path / "sims.csv"))
    assert code == 0
    summary = json.loads(out)
    assert (summary["reps"], summary["seed"]) == (30, 5)


def test_config_cannot_replace_the_subcommand(capsys, tmp_path):
    for field in ("func", "command", "config"):
        code, err = _config_usage_error(capsys, tmp_path, {field: "verify"},
                                        "schedule", "--n", "12", "--profile", "iid")
        assert code == 2 and f"unrecognized arguments: --{field}=verify" in err


def test_rates_rejects_empty_range(capsys):
    with pytest.raises(SystemExit, match="no lattice member"):
        cli.main(["rates", "--profile", "iid", "--n-min", "5000", "--n-max", "100"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "--process", "iid", "--class", "halfpair", "--n", "96"],
    ["couple", "--process", "ma:m=3", "--class", "lipschitz5", "--n", "96", "--q", "6"],
    ["strongapprox", "--process", "ar1:rho=0.5", "--class", "lipschitz4", "--n-grid", "384"],
])
def test_single_rep_rejected_before_simulating(argv, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before rejecting --reps 1")

    monkeypatch.setattr(cli.pr, "simulate_many", no_simulation)
    monkeypatch.setattr(cli.pr, "sup_samples", no_simulation)
    monkeypatch.setattr(cli.cp, "gap_samples", no_simulation)
    monkeypatch.setattr(cli.cp, "strong_approx_experiment", no_simulation)
    with pytest.raises(SystemExit, match="--reps must be >= 2"):
        cli.main(argv + ["--reps", "1"])


def test_couple_simulates_once(monkeypatch, capsys):
    calls = []
    core = processes._simulate_core

    def counting(*args, **kwargs):
        calls.append(args)
        return core(*args, **kwargs)

    monkeypatch.setattr(processes, "_simulate_core", counting)
    code, out = run_cli(capsys, "couple", "--process", "ma:m=3", "--class",
                        "lipschitz5", "--n", "96", "--q", "6", "--reps", "30")
    assert code == 0 and json.loads(out)["command"] == "couple"
    assert len(calls) == 1


def _count_simulations(monkeypatch):
    """Record every whole draw (``_simulate_core``) and every streamed one
    (``_innovation_chunks``, patched where ``coupling`` bound it too)."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(processes, "_simulate_core", counting(processes._simulate_core))
    streamed = counting(processes._innovation_chunks)
    for module in (processes, coupling):
        monkeypatch.setattr(module, "_innovation_chunks", streamed)
    return calls


def test_couple_rejects_too_few_blocks_before_simulating(monkeypatch, capsys):
    calls = _count_simulations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["couple", "--process", "ar1:rho=0.9", "--class", "lipschitz4",
                  "--n", "1536", "--q", "1536", "--reps", "30"])
    assert str(exc.value.code) == "mixbound: error: need at least two same-parity blocks"
    assert calls == [] and capsys.readouterr().out == ""


@pytest.mark.parametrize("q", ["0", "-3"])
def test_couple_rejects_q_below_one_before_simulating(q, monkeypatch, capsys):
    calls = _count_simulations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["couple", "--process", "ar1:rho=0.9", "--class", "lipschitz4",
                  "--n", "1536", "--q", q, "--reps", "30"])
    assert str(exc.value.code) == f"mixbound: error: q must be >= 1, got {q}"   # exit 1
    assert calls == [] and capsys.readouterr().out == ""


def test_couple_names_q_not_dividing_n_before_simulating(monkeypatch, capsys):
    # n=12 has two blocks of length 5: divisibility is checked before the count.
    calls = _count_simulations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["couple", "--process", "ar1:rho=0.5", "--class", "lipschitz4",
                  "--n", "12", "--q", "5", "--reps", "30"])
    assert str(exc.value.code) == "mixbound: error: q=5 does not divide n=12"
    assert calls == [] and capsys.readouterr().out == ""


@pytest.mark.parametrize("grid, message", [
    ("384,384", "n_grid must be strictly increasing: 384 follows 384"),
    ("1536,384", "n_grid must be strictly increasing: 384 follows 1536"),
])
def test_strongapprox_rejects_bad_grid_before_simulating(grid, message, monkeypatch,
                                                         capsys, tmp_path):
    calls = _count_simulations(monkeypatch)
    report = tmp_path / "sa.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["strongapprox", "--process", "ar1:rho=0.5", "--class", "lipschitz4",
                  "--n-grid", grid, "--reps", "30", "--output", str(report)])
    assert str(exc.value.code) == f"mixbound: error: {message}"   # exit status 1
    assert calls == [] and not report.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--n-grid", "384,,1536", "not a list of integers: '384,,1536'"),
    ("--gamma", "abc", "invalid float value: 'abc'"),
])
def test_strongapprox_bad_flag_value_is_a_usage_error(flag, value, message,
                                                      monkeypatch, capsys, tmp_path):
    calls = _count_simulations(monkeypatch)
    report = tmp_path / "sa.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["strongapprox", "--process", "ar1:rho=0.5", "--class", "lipschitz4",
                  flag, value, "--reps", "30", "--output", str(report)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and f"argument {flag}: {message}" in captured.err
    assert calls == [] and not report.exists() and captured.out == ""


def test_strongapprox_refuses_a_non_markov_process_before_simulating(monkeypatch, capsys):
    calls = _count_simulations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["strongapprox", "--process", "ma:m=3", "--class", "lipschitz4",
                  "--n-grid", "6144,24576", "--reps", "2000"])
    assert str(exc.value.code) == ("mixbound: error: strong approximation needs a Markov "
                                   "process for its tau term; ma:m=3 is not")
    assert calls == [] and capsys.readouterr().out == ""


def test_strongapprox_refuses_unbounded_members_at_gamma_inf_before_simulating(
        monkeypatch, capsys):
    calls = _count_simulations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["strongapprox", "--process", "ar1:rho=0.5", "--class", "identity",
                  "--n-grid", "384,1536", "--reps", "30"])
    assert str(exc.value.code) == "mixbound: error: gamma=inf needs finite sup bounds"
    assert calls == [] and capsys.readouterr().out == ""


@pytest.mark.parametrize("gamma, recorded", [(None, "inf"), ("infinity", "inf"),
                                             ("3", 3.0)])
def test_strongapprox_records_gamma_as_a_number(gamma, recorded, capsys, monkeypatch):
    seen = []

    def fake(model, members, n_grid, reps, seed, gamma_order):
        seen.append(gamma_order)
        return cli.cp.StrongApproxReport(points=(), monotone=True, within_bound=True)

    monkeypatch.setattr(cli.cp, "strong_approx_experiment", fake)
    extra = [] if gamma is None else ["--gamma", gamma]
    code, out = run_cli(capsys, "strongapprox", "--process", "ar1:rho=0.5", "--class",
                        "lipschitz4", "--n-grid", "384", *extra)
    assert code == 0 and seen == [float(recorded)]
    assert json.loads(out)["inputs"]["gamma"] == recorded


def test_verify_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "grid", "--workers", "2"])
    assert exc.value.code != 0
    assert "--workers" in capsys.readouterr().err


def test_rates_csv_regimes(capsys):
    code, out = run_cli(capsys, "rates", "--profile", "poly:m=0.5", "--r", "4",
                        "--n-min", "1000", "--n-max", "20000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["regime"] == "slow" for r in rows)
    for r in rows:
        frak = float(r["frak_n"])
        assert float(r["lower_env"]) <= math.sqrt(frak) <= float(r["upper_env"])
        n = int(r["n"])
        assert math.isclose(float(r["effective_n"]), n / frak, rel_tol=1e-9)


def test_norms_json(capsys, tmp_path):
    curve_file = tmp_path / "curve.csv"
    rng = np.random.default_rng(0)
    samples = rng.normal(0, 1, 200)
    curve_file.write_text("\n".join(f"{x:.9f}" for x in samples))
    code, out = run_cli(capsys, "norms", "--profile", "expo:l=0.7", "--q", "8",
                        "--r", "4", "--curve", str(curve_file))
    assert code == 0
    payload = json.loads(out)
    prof = mixing.exponential_profile(0.7)
    curve = norms.QuantileCurve.from_sample(samples)
    assert math.isclose(payload["q_norm"], norms.dependence_norm(curve, 8, prof),
                        rel_tol=1e-9)
    assert math.isclose(payload["b_r"], norms.holder_factor(8, 4.0, prof),
                        rel_tol=1e-9)
    assert payload["mu_breakpoints"] == sorted(payload["mu_breakpoints"])


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_norms_rejects_non_finite_sample(capsys, tmp_path, bad):
    curve_file = tmp_path / "curve.csv"
    curve_file.write_text(f"1.0\n{bad}\n2.0\n")
    with pytest.raises(SystemExit, match="values must be finite"):
        cli.main(["norms", "--profile", "poly:m=1.5", "--q", "8",
                  "--curve", str(curve_file)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("family", ["constant:l2", "schedule:n=384,profile=poly:m=1"])
@pytest.mark.parametrize("field", ["table", "weights"])
def test_gamma_rejects_non_finite_class(capsys, tmp_path, family, field):
    payload = {"table": [[0.0, 1.0], [1.0, 2.0]], "weights": [0.5, 0.5]}
    payload[field][-1] = [math.nan, 2.0] if field == "table" else math.nan
    class_file = tmp_path / "cls.json"
    class_file.write_text(json.dumps(payload))  # json writes NaN, and reads it back
    with pytest.raises(SystemExit, match="must be finite"):
        cli.main(["gamma", "--class-file", str(class_file), "--norms", family])
    assert capsys.readouterr().out == ""


def test_gamma_subcommand(capsys, tmp_path):
    rng = np.random.default_rng(1)
    class_file = tmp_path / "cls.json"
    class_file.write_text(json.dumps({
        "table": rng.normal(0, 1, (4, 10)).tolist(),
        "weights": (np.ones(10) / 10).tolist(),
        "names": ["a", "b", "c", "d"],
    }))
    code, out = run_cli(capsys, "gamma", "--class-file", str(class_file),
                        "--norms", "constant:l2")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exact"
    assert payload["gamma"] > 0
    assert payload["witness_partitions"][0] == [[0, 1, 2, 3]]


def test_simulate_outputs(capsys, tmp_path):
    out_file = tmp_path / "sims.csv"
    code, out = run_cli(capsys, "simulate", "--process", "iid", "--class",
                        "halfpair", "--n", "384", "--reps", "40", "--seed", "5",
                        "--output", str(out_file))
    assert code == 0
    summary = json.loads(out)
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 40
    vals = [float(r["sup_value"]) for r in rows]
    assert math.isclose(summary["mean_sup"], float(np.mean(vals)), rel_tol=1e-9)


def test_couple_exits_one_after_writing_a_failed_report(capsys, monkeypatch, tmp_path):
    test = cli.cp.block_independence_test

    def failing(*args, **kwargs):
        return dataclasses.replace(test(*args, **kwargs), passed=False)

    monkeypatch.setattr(cli.cp, "block_independence_test", failing)
    report = tmp_path / "couple.json"
    code = cli.main(COUPLE + ["--output", str(report)])
    assert code == 1
    assert json.loads(report.read_text())["checks"] == [
        {"id": "even_block_independence", "passed": False}]


def test_couple_report(capsys):
    code, out = run_cli(capsys, "couple", "--process", "ma:m=3", "--class",
                        "lipschitz5", "--n", "96", "--q", "6", "--reps", "40",
                        "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["gap_max"] == 0


def test_verify_exit_codes(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code = cli.main(["verify", "--suite", "grid", "--seed", "7",
                     "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert {c["id"] for c in payload["checks"]} == {"A1", "A2"}
    assert all(c["passed"] is True for c in payload["checks"])


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "nonsense"])


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MIXBOUND_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--process", "iid", "--class", "halfpair",
                  "--n", "96", "--reps", "30"])
    assert str(exc.value.code) == \
        "mixbound: error: MIXBOUND_SEED must be an integer, got 'abc'"
    assert capsys.readouterr().out == ""


def test_env_seed_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MIXBOUND_SEED", "99")
    f1 = tmp_path / "a.json"
    cli.main(["simulate", "--process", "iid", "--class", "halfpair",
              "--n", "96", "--reps", "30", "--output", str(f1)])
    out = capsys.readouterr().out
    assert json.loads(out)["seed"] == 99


def _class_file(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({"table": rng.normal(0, 1, (4, 12)).tolist(),
                                "weights": (np.ones(12) / 12).tolist()}))
    return str(path)


def _curve_file(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("0.5\n-1.25\n2.0\n")
    return str(path)


SIM = ["simulate", "--class", "halfpair", "--n", "96", "--reps", "30", "--process"]
RATES = ["rates", "--profile", "poly:m=1", "--n-min", "1000", "--n-max", "2000"]
NORMS = ["norms", "--q", "4", "--curve", "{curve}", "--profile"]


@pytest.mark.parametrize("argv, message", [
    (SIM + ["ar1"], "missing key 'rho' in 'ar1'"),
    (["schedule", "--n", "12", "--profile", "mdep"], "missing key 'm' in 'mdep'"),
    (["gamma", "--class-file", "{cls}", "--norms", "constant:lr"],
     "missing key 'r' in 'constant:lr'"),
    (["gamma", "--class-file", "{cls}", "--norms", "schedule:n=384"],
     "missing key 'profile' in 'schedule:n=384'"),
    (["simulate", "--process", "iid", "--class", "nosuch", "--n", "96"],
     "unknown class 'nosuch'"),
    (["gamma", "--class-file", "{tmp}/absent.json", "--norms", "constant:l2"],
     "absent.json"),
    (["norms", "--profile", "poly:m=1", "--q", "4", "--curve", "{tmp}/absent.csv"],
     "absent.csv"),
    (["schedule", "--n", "12", "--profile", "table:{tmp}/absent.csv"], "absent.csv"),
    (SIM + ["ar1:rho=0.5,foo=1"], "unknown key 'foo'"),
    (["schedule", "--n", "12", "--profile", "poly:m=1,l=3"], "unknown key 'l'"),
    (SIM + ["ar1:rho=0.5,rho=0.9"], "repeated key 'rho'"),
    (["schedule", "--n", "12", "--profile", "poly:m=1,m=2"], "repeated key 'm'"),
    (SIM + ["iid:scale=-1"], "scale must be finite and > 0, got -1.0"),
    (SIM + ["iid:scale=inf"], "scale must be finite and > 0, got inf"),
    (SIM + ["ma:m=3,sigma=nan"], "sigma must be finite and > 0, got nan"),
    (SIM + ["lazy:m=nan"], "lazy_renewal needs a finite tail_m > 0, got nan"),
    (RATES + ["--r", "nan"], "r must be > 2 and finite, got nan"),
    (RATES + ["--r", "inf"], "r must be > 2 and finite, got inf"),
    (NORMS + ["poly:m=1", "--r", "nan"], "r must be > 2 and finite, got nan"),
    (NORMS + ["poly:m=nan"], "polynomial needs m > 0"),
    (["gamma", "--class-file", "{cls}", "--norms", "constant:lr,r=nan"],
     "r must be > 0 and finite, got nan"),
    (["schedule", "--n", "8", "--profile", "iid", "--basis-size", "1"],
     "basis_size must be in [2, 1000]"),
    (["schedule", "--n", "1", "--profile", "iid", "--basis-size", "0"],
     "basis_size must be in [2, 1000]"),
    (["schedule", "--n", "12", "--profile", "iid", "--basis-size", "100000"],
     "basis_size must be in [2, 1000]"),
    (["norms", "--q", "-1", "--curve", "{curve}", "--profile", "poly:m=1"],
     "q must be >= 0"),
    (["schedule", "--n", "12", "--profile", "table:{table2d}"],
     "need one row or one column of values, got shape (2, 2)"),
    (["norms", "--profile", "poly:m=1", "--q", "4", "--curve", "{table2d}"],
     "need one row or one column of values, got shape (2, 2)"),
    (["schedule", "--n", "12", "--profile", "mdep:m=1.5"],
     "key 'm' in 'mdep:m=1.5' must be an integer, got '1.5'"),
    (SIM + ["ma:m=1.5"], "key 'm' in 'ma:m=1.5' must be an integer, got '1.5'"),
    (SIM + ["ar1:rho=abc"], "key 'rho' in 'ar1:rho=abc' must be a number, got 'abc'"),
    (["schedule", "--n", "12", "--profile", "expo:l=abc"],
     "key 'l' in 'expo:l=abc' must be a number, got 'abc'"),
    (["gamma", "--class-file", "{cls}", "--norms", "constant:lr,r=abc"],
     "key 'r' in 'constant:lr,r=abc' must be a number, got 'abc'"),
    (["gamma", "--class-file", "{cls}", "--norms", "schedule:n=384,profile=mdep:m=1.5"],
     "key 'm' in 'mdep:m=1.5' must be an integer, got '1.5'"),
], ids=["process-missing-key", "profile-missing-key", "lr-missing-key",
        "schedule-missing-profile", "unknown-class", "missing-class-file",
        "missing-curve", "missing-table", "process-unknown-key", "profile-unknown-key",
        "process-repeated-key", "profile-repeated-key", "negative-scale",
        "infinite-scale", "nan-sigma", "nan-tail", "rates-nan-r", "rates-infinite-r",
        "norms-nan-r", "norms-nan-poly-m", "gamma-nan-lr", "schedule-basis-1",
        "schedule-basis-0", "schedule-basis-over-cap", "norms-negative-q",
        "table-2d", "norms-curve-2d", "mdep-non-integer-m", "ma-non-integer-m",
        "ar1-non-numeric-rho", "expo-non-numeric-l", "lr-non-numeric-r",
        "nested-profile-non-integer-m"])
def test_bad_spec_fails_fast(capsys, tmp_path, argv, message):
    table2d = tmp_path / "t2.csv"
    table2d.write_text("1,0.5\n0.3,0.1\n")
    argv = [a.format(cls=_class_file(tmp_path), tmp=tmp_path, curve=_curve_file(tmp_path),
                     table2d=table2d)
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert str(exc.value.code).startswith("mixbound: error: ")
    assert message in str(exc.value.code)
    assert capsys.readouterr().out == ""


def test_nan_table_profile_fails_fast(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("1\nnan\n0.3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["norms", "--profile", f"table:{table}", "--q", "4",
                  "--curve", _curve_file(tmp_path)])
    assert str(exc.value.code) == f"mixbound: error: table file {table}: values must be finite"
    assert capsys.readouterr().out == ""


def _strongapprox_gamma_error(gamma, monkeypatch, capsys, tmp_path):
    calls = _count_simulations(monkeypatch)
    report = tmp_path / "sa.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["strongapprox", "--process", "ar1:rho=0.5", "--class", "lipschitz4",
                  "--n-grid", "384", "--gamma", gamma, "--reps", "30",
                  "--output", str(report)])
    assert calls == [] and not report.exists() and capsys.readouterr().out == ""
    return str(exc.value.code)   # a message, so exit status 1


def test_strongapprox_rejects_nan_gamma(monkeypatch, capsys, tmp_path):
    assert _strongapprox_gamma_error("nan", monkeypatch, capsys, tmp_path) == \
        "mixbound: error: --gamma must be >= 2 or inf, got nan"


def test_strongapprox_rejects_gamma_below_two(monkeypatch, capsys, tmp_path):
    assert _strongapprox_gamma_error("1", monkeypatch, capsys, tmp_path) == \
        "mixbound: error: --gamma must be >= 2 or inf, got 1.0"


def _python(*args):
    """A fresh interpreter running ``python *args`` on this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is imported where the AR(1) path needs it, so that every
    # CLI call does not pay for its import.
    proc = _python("-c", "import sys, mixbound.cli; print('scipy.signal' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


VALUE_FILE_ARGVS = [
    ("curve", ["norms", "--profile", "poly:m=1", "--q", "4", "--curve", "{file}"]),
    ("table", ["schedule", "--n", "12", "--profile", "table:{file}"]),
]


@pytest.mark.parametrize("what, argv", VALUE_FILE_ARGVS)
def test_empty_value_file_fails_with_one_error_line(tmp_path, what, argv):
    # Refused before numpy reads it, so no numpy warning precedes the error.
    empty = tmp_path / "empty.csv"
    empty.write_text("\n# no values\n")
    proc = _python("-m", "mixbound.cli", *[a.format(file=empty) for a in argv])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"mixbound: error: {what} file {empty}: holds no values\n"


@pytest.mark.parametrize("content, fault", [
    (b"0.5\n2.0\xe9\n", "'utf-8' codec can't decode byte 0xe9"),
    (b"0.5\nabc\n", "could not convert string 'abc' to float64"),
    (b"0.5\nnan\n", "values must be finite"),
    (b"0.5\n-inf\n", "values must be finite"),
], ids=["latin-1", "not-a-number", "nan", "inf"])
@pytest.mark.parametrize("what, argv", VALUE_FILE_ARGVS)
def test_bad_value_file_names_the_file(capsys, tmp_path, what, argv, content, fault):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(file=bad) for a in argv])
    assert str(exc.value.code).startswith(f"mixbound: error: {what} file {bad}: {fault}")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_memory_error_is_a_cli_error(capsys, tmp_path, monkeypatch, error, message):
    # Raised in place of the allocation: a real one could get the process killed.
    def refuse(self, q):
        raise error

    monkeypatch.setattr(mixing.MixingProfile, "half_levels", refuse)
    curve = tmp_path / "c.csv"
    curve.write_text("0.5\n2.0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["norms", "--profile", "iid", "--q", "100000000000",
                  "--curve", str(curve)])
    assert exc.value.code == f"mixbound: error: {message}"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("payload, message", [
    ({"table": [[0, 1], [1, 2]]}, "missing key 'weights'"),
    ({"weights": [0.5, 0.5]}, "missing key 'table'"),
    ([[0, 1], [1, 2]], "top level must be a JSON object"),
    ({"table": "ab", "weights": [0.5, 0.5]},
     "table must be a rectangular array of numbers"),
    ({"table": [[0, 1], [1, 2]], "weights": [0.5, [0.5]]},
     "weights must be a rectangular array of numbers"),
    ({"table": [[0, 1], [1]], "weights": [0.5, 0.5]},
     "table must be a rectangular array of numbers"),
    ({"table": [[0, 1], [1, 2]], "weights": [0.5, "a"]},
     "weights must be a rectangular array of numbers"),
    ({"table": [[0, 1], [1, {"a": 1}]], "weights": [0.5, 0.5]},
     "table must be a rectangular array of numbers"),
])
def test_class_file_without_table_or_weights_fails_fast(capsys, tmp_path, payload, message):
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        cli.main(["gamma", "--class-file", str(path), "--norms", "constant:l2"])
    assert str(exc.value.code) == f"mixbound: error: class file {path}: {message}"
    assert capsys.readouterr().out == ""


def test_class_file_that_is_not_json_names_the_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["gamma", "--class-file", str(path), "--norms", "constant:l2"])
    assert str(exc.value.code) == \
        f"mixbound: error: class file {path}: Expecting ',' delimiter: line 2 column 1 (char 3)"
    assert capsys.readouterr().out == ""


def test_schedule_norms_keep_the_table_tail(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("1\n0.5\n0.3\n")
    cls = _class_file(tmp_path)
    gammas = {}
    for tail in ("zero", "hold"):
        code, out = run_cli(capsys, "gamma", "--class-file", cls, "--norms",
                            f"schedule:n=384,profile=table:{table},tail={tail}")
        assert code == 0
        gammas[tail] = json.loads(out)["gamma"]
        sched = grid.block_schedule(384, mixing.tabulated_profile([1, 0.5, 0.3], tail))
        want, _ = chaining.complexity_exact(cli._load_class_file(cls),
                                            chaining.schedule_family(sched))
        assert gammas[tail] == float(f"{want:.12g}")
    assert gammas["hold"] != gammas["zero"]


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_verify_rejects_bad_reps_scale(monkeypatch, capsys, scale):
    """``verify`` has no ``--reps-scale``: any value is an unrecognized argument."""
    def no_criteria(*args, **kwargs):
        raise AssertionError("ran criteria despite an unknown option")

    monkeypatch.setattr(cli.ac, "run_criteria", no_criteria)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "coupling", f"--reps-scale={scale}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: --reps-scale={scale}" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "grid"],
    ["simulate", "--process", "iid", "--class", "halfpair", "--n", "96", "--reps", "30"],
])
def test_negative_seed_flag_is_a_usage_error(argv, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before rejecting --seed")

    monkeypatch.setattr(cli.ac, "run_criteria", no_run)
    monkeypatch.setattr(cli.pr, "sup_samples", no_run)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --seed: must be >= 0, got -1" in captured.err


def test_negative_config_seed_is_a_usage_error(capsys, tmp_path):
    code, err = _config_usage_error(capsys, tmp_path, {"seed": -2}, *SIM, "iid")
    assert code == 2 and "argument --seed: must be >= 0, got -2" in err


def test_negative_env_seed_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("MIXBOUND_SEED", "-3")
    with pytest.raises(SystemExit) as exc:
        cli.main(SIM + ["iid"])
    assert str(exc.value.code) == "mixbound: error: MIXBOUND_SEED must be >= 0, got -3"
    assert capsys.readouterr().out == ""


# -- the per-process parser -----------------------------------------------------


@pytest.fixture
def parser_builds(monkeypatch):
    """Every top-level ``mixbound`` parser built, from a cleared cache on."""
    builds = []

    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "mixbound":
            builds.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    yield builds
    cli._build_parser.cache_clear()


def _simulate_summary(capsys, tmp_path, *extra, config=()):
    code, out = run_cli(capsys, *config, "simulate", "--process", "iid", "--class",
                        "halfpair", "--n", "96", "--output", str(tmp_path / "sims.csv"),
                        *extra)
    assert code == 0
    return json.loads(out)


def test_main_builds_the_parser_once(parser_builds, capsys):
    for n in ("12", "24", "36"):
        code, _ = run_cli(capsys, "schedule", "--n", n, "--profile", "iid")
        assert code == 0
    assert len(parser_builds) == 1


def test_cached_parser_returns_defaults_after_explicit_flags(parser_builds, capsys,
                                                             monkeypatch, tmp_path):
    monkeypatch.delenv("MIXBOUND_SEED", raising=False)
    first = _simulate_summary(capsys, tmp_path, "--reps", "30", "--seed", "5")
    assert (first["reps"], first["seed"]) == (30, 5)
    second = _simulate_summary(capsys, tmp_path)
    assert (second["reps"], second["seed"]) == (200, cli.DEFAULT_SEED)
    assert len(parser_builds) == 1


def test_one_parser_serves_calls_with_and_without_config(parser_builds, capsys,
                                                         tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"reps": 40}')
    assert _simulate_summary(capsys, tmp_path)["reps"] == 200
    assert _simulate_summary(capsys, tmp_path, config=("--config", str(cfg)))["reps"] == 40
    assert _simulate_summary(capsys, tmp_path, config=(f"--config={cfg}",))["reps"] == 40
    assert _simulate_summary(capsys, tmp_path)["reps"] == 200
    assert len(parser_builds) == 1 and cli._build_parser() is parser_builds[0]


def test_unknown_option_still_fails_after_a_cached_parse(parser_builds, capsys):
    assert run_cli(capsys, "schedule", "--n", "12", "--profile", "iid")[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "grid", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert len(parser_builds) == 1


def test_cached_parser_outputs_match_fresh_parsers(capsys, monkeypatch, tmp_path):
    argvs = [
        ["rates", "--profile", "poly:m=1", "--n-min", "1000", "--n-max", "20000"],
        ["rates", "--profile", "expo:l=0.7", "--r", "3", "--n-min", "1000",
         "--n-max", "5000"],
        ["gamma", "--class-file", _class_file(tmp_path), "--norms", "constant:l2"],
        ["gamma", "--class-file", _class_file(tmp_path), "--norms", "constant:lr,r=4"],
        ["schedule", "--n", "360", "--profile", "poly:m=1"],
        ["schedule", "--n", "360", "--profile", "mdep:m=5", "--basis-size", "4"],
    ]

    def outputs():
        return [run_cli(capsys, *argv) for argv in argvs]

    cached = outputs()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # fresh per call
    assert outputs() == cached
    assert all(code == 0 and out for code, out in cached)


# -- the flag list ----------------------------------------------------------------


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


FLAGS = {
    "schedule": {"--output", "--basis-size", "--n", "--profile"},
    "rates": {"--output", "--basis-size", "--profile", "--r", "--n-min", "--n-max"},
    "norms": {"--output", "--profile", "--q", "--r", "--curve"},
    "gamma": {"--output", "--basis-size", "--class-file", "--norms"},
    "simulate": {"--output", "--seed", "--process", "--class", "--n", "--reps"},
    "couple": {"--output", "--seed", "--timing", "--process", "--class", "--n", "--q",
               "--reps"},
    "strongapprox": {"--output", "--seed", "--timing", "--process", "--class",
                     "--n-grid", "--gamma", "--reps"},
    "verify": {"--output", "--seed", "--timing", "--suite"},
}


def test_each_subcommand_takes_exactly_the_flags_its_handler_reads():
    subs = _subparsers(cli._build_parser())
    assert set(subs) == set(FLAGS)
    for name, p in subs.items():
        options = [a for a in p._actions if a.option_strings and a.dest != "help"]
        assert {s for a in options for s in a.option_strings} == FLAGS[name], name
        handler = p.get_default("func")
        reads = set(re.findall(r"args\.(\w+)", inspect.getsource(handler)))
        assert {a.dest for a in options} == reads, name


def _readme_flag_table():
    """{subcommand: (required flags, --seed, --timing, --basis-size)} from the
    README's flag table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    head = "| subcommand | required | `--seed` | `--timing` | `--basis-size` |"
    rows = text.split(head, 1)[1].split("\n\n", 1)[0].strip().splitlines()[1:]
    table = {}
    for row in rows:
        name, required, *marks = [cell.strip() for cell in row.strip("|").split("|")]
        table[name.strip("`")] = (set(re.findall(r"`(--[\w-]+)`", required)),
                                  *(mark == "yes" for mark in marks))
    return table


def test_readme_flag_table_matches_the_parser():
    table = _readme_flag_table()
    subs = _subparsers(cli._build_parser())
    assert set(table) == set(subs)
    for name, p in subs.items():
        options = {s: a for a in p._actions for s in a.option_strings}
        required = {s for s, a in options.items() if a.required}
        assert table[name] == (required, "--seed" in options, "--timing" in options,
                               "--basis-size" in options), name


def test_env_seed_is_ignored_where_nothing_is_drawn(capsys, monkeypatch):
    argv = ["schedule", "--n", "12", "--profile", "iid"]
    monkeypatch.delenv("MIXBOUND_SEED", raising=False)
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("MIXBOUND_SEED", "abc")
    assert plain[0] == 0 and run_cli(capsys, *argv) == plain


@pytest.mark.parametrize("argv, flag", [
    (["rates", "--profile", "iid", "--seed", "3"], "--seed"),
    (["couple", "--process", "iid", "--class", "halfpair", "--n", "210", "--q", "7",
      "--basis-size", "4"], "--basis-size"),
    (["schedule", "--n", "12", "--profile", "iid", "--timing"], "--timing"),
    (["norms", "--profile", "iid", "--q", "4", "--curve", "c.csv", "--basis-size", "4"],
     "--basis-size"),
    (["schedule", "--n", "12", "--prof", "iid"], "--prof"),
    (["--conf", "c.json", "schedule", "--n", "12", "--profile", "iid"], "c.json"),
])
def test_flag_a_handler_does_not_read_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


def test_config_may_name_only_the_subcommands_flags(capsys, tmp_path):
    code, err = _config_usage_error(capsys, tmp_path, {"seed": 3},
                                    "rates", "--profile", "iid")
    assert code == 2 and "unrecognized arguments: --seed=3" in err


# -- the config file, read as flags ---------------------------------------------


def test_config_takes_the_long_name_of_class(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"class": "halfpair", "reps": 30}')
    code, out = run_cli(capsys, "--config", str(cfg), "simulate", "--process", "iid",
                        "--n", "96", "--output", str(tmp_path / "sims.csv"))
    assert code == 0
    assert (json.loads(out)["class"], json.loads(out)["reps"]) == ("halfpair", 30)


def test_config_field_names_read_underscore_as_dash(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"class_file": _class_file(tmp_path),
                               "norms": "constant:l2"}))
    code, out = run_cli(capsys, f"--config={cfg}", "gamma")
    assert code == 0 and json.loads(out)["method"] == "exact"


@pytest.mark.parametrize("config, message", [
    ({"reps": 2.5}, "argument --reps: invalid int value: '2.5'"),
    ({"n": 96.0}, "argument --n: invalid int value: '96.0'"),
    ({"seed": "x"}, "argument --seed: invalid int value: 'x'"),
    ({"reps": True}, "argument --reps: expected one argument"),
    ({"n": [96]}, "config: field 'n' must be a string, number or boolean"),
    ({"process": {"kind": "iid"}},
     "config: field 'process' must be a string, number or boolean"),
])
def test_config_value_of_the_wrong_type_is_a_usage_error(capsys, tmp_path,
                                                         config, message):
    code, err = _config_usage_error(capsys, tmp_path, config, "simulate",
                                    "--process", "iid", "--class", "halfpair",
                                    "--n", "96")
    assert code == 2 and message in err


def test_config_timing_must_be_a_boolean(capsys, tmp_path):
    code, err = _config_usage_error(capsys, tmp_path, {"timing": "no"}, *COUPLE)
    assert code == 2 and "argument --timing: ignored explicit argument 'no'" in err


@pytest.mark.parametrize("timing", [True, False, None])
def test_config_timing_true_attaches_the_wall_clock(capsys, tmp_path, timing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"timing": timing}))
    code, out = run_cli(capsys, "--config", str(cfg), *COUPLE)
    assert code == 0
    assert ("meta" in json.loads(out)) is (timing is True)


def test_required_flags_may_come_from_the_config_alone(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 12, "profile": "poly:m=1"}')
    assert run_cli(capsys, "--config", str(cfg), "schedule") == \
        run_cli(capsys, "schedule", "--n", "12", "--profile", "poly:m=1")


@pytest.mark.parametrize("argv, missing", [
    (["schedule", "--profile", "iid"], "--n"),
    (["rates"], "--profile"),
    (["norms", "--profile", "iid", "--q", "4"], "--curve"),
    (["gamma", "--norms", "constant:l2"], "--class-file"),
    (["simulate", "--process", "iid", "--n", "96"], "--class"),
    (["couple", "--process", "iid", "--class", "halfpair", "--n", "96"], "--q"),
    (["strongapprox", "--class", "lipschitz4"], "--process"),
])
def test_missing_required_flag_is_a_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the following arguments are required: {missing}" in captured.err


def test_missing_required_flag_is_a_usage_error_with_a_config(capsys, tmp_path):
    code, err = _config_usage_error(capsys, tmp_path, {"profile": "iid"}, "schedule")
    assert code == 2 and "the following arguments are required: --n" in err


def test_readme_examples_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("mixbound ")]
    assert len(lines) >= 10
    parser = cli._build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.func.__name__ == f"cmd_{args.command}", line
