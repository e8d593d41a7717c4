"""Command-line front end: schedule, rates, norms, gamma, simulate, couple,
strongapprox and verify subcommands with deterministic seeding and
CSV/JSON emission.

A JSON config file's fields are read as flags ahead of the command line's
own, so explicit flags win.  Each subcommand takes only the flags its handler
reads.  The seeded subcommands (simulate, couple, strongapprox, verify)
default to seed 7, overridable by the MIXBOUND_SEED environment variable and
then by --seed.  Reports serialize with sorted keys and 12-significant-digit
floats, so identical configurations produce identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import acceptance as ac
from . import chaining as ch
from . import coupling as cp
from . import function_classes as fc
from . import grid as gr
from . import mixing as mx
from . import norms as nm
from . import processes as pr
from . import rates as rt
from .report import ExperimentReport, dumps_canonical

DEFAULT_SEED = 7


class CliError(SystemExit):
    def __init__(self, message: str):
        super().__init__(f"mixbound: error: {message}")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _model_members(args) -> tuple:
    """The ``--process`` model and the members of its ``--class``, once
    ``--reps`` is known to give a standard error."""
    if args.reps < 2:
        raise CliError(f"--reps must be >= 2 for a standard error, got {args.reps}")
    model = pr.parse_model(args.process)
    return model, fc.make_class(args.cls, model).members


def _report(t0: float, timing: bool, output: str | None, **fields) -> int:
    """Emit an ``ExperimentReport`` of ``fields`` timed from ``t0``; 1 if a check failed."""
    report = ExperimentReport(**fields, wall_clock_s=time.perf_counter() - t0)
    _emit(report.to_json(include_timing=timing), output)
    return 0 if report.all_passed() else 1


def _seed(text: str) -> int:
    """``--seed``'s type: a non-negative integer, as numpy's seeds are."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _int_list(text: str) -> list[int]:
    try:
        return [int(entry) for entry in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _parse_norm_family(text: str, basis_size: int) -> ch.NormFamily:
    head, _, rest = text.partition(":")
    if head == "constant":
        name, _, fields = rest.partition(",")
        if name == "l2":
            pr._parse_kv(text, fields)  # takes no fields
            return ch.l2_family()
        if name == "lr":
            return ch.lr_family(pr._parse_kv(text, fields, {"r": float})["r"])
        raise CliError(f"unknown constant norm {name!r}")
    if head == "schedule":
        kv = pr._parse_kv(text, rest, {"n": int, "profile": str}, last="profile")
        profile = mx.parse_profile(kv["profile"])
        return ch.schedule_family(gr.block_schedule(kv["n"], profile, basis_size))
    raise CliError(f"cannot parse norm family {text!r}")


def _load_class_file(path: str) -> ch.FunctionClass:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:   # not JSON, or not UTF-8
            raise ValueError(f"class file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"class file {path}: top level must be a JSON object")
    for key in ("table", "weights"):
        if key not in payload:
            raise ValueError(f"class file {path}: missing key {key!r}")
    arrays = {}
    for key in ("table", "weights"):
        try:   # a ragged list is a ValueError, a nested object a TypeError
            arrays[key] = np.asarray(payload[key], dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"class file {path}: {key} must be a rectangular "
                             f"array of numbers") from None
    return ch.FunctionClass(**arrays)


# -- subcommand handlers ------------------------------------------------------


def cmd_schedule(args) -> int:
    chain = gr.divisor_chain(args.n, args.basis_size)
    profile = mx.parse_profile(args.profile)
    sched = gr.block_schedule(args.n, profile, args.basis_size)
    _emit(dumps_canonical({
        "n": args.n,
        "divisors": list(chain.divisors),
        "q_seq": list(sched.q_seq),
    }), args.output)
    return 0


def cmd_rates(args) -> int:
    profile = mx.parse_profile(args.profile)
    table = rt.rate_table(profile, args.r, args.n_min, args.n_max, args.basis_size)
    rows = [
        (rep.n, rep.q0, _fmt(rep.factor), _fmt(rep.effective_n), rep.regime,
         _fmt(rep.lower_env), _fmt(rep.upper_env))
        for rep in table
    ]
    _emit(_csv_text(
        ("n", "q_n0", "frak_n", "effective_n", "regime", "lower_env", "upper_env"),
        rows), args.output)
    return 0


def cmd_norms(args) -> int:
    profile = mx.parse_profile(args.profile)
    curve = nm.QuantileCurve.from_sample(mx._read_values(args.curve, "curve"))
    half = np.unique(profile.half_levels(args.q))
    _emit(dumps_canonical({
        "mu_breakpoints": [float(h) for h in half if h > 0],
        "q_norm": nm.dependence_norm(curve, args.q, profile),
        "b_r": nm.holder_factor(args.q, args.r, profile),
    }), args.output)
    return 0


def cmd_gamma(args) -> int:
    cls = _load_class_file(args.class_file)
    family = _parse_norm_family(args.norms, args.basis_size)
    if cls.size <= ch.EXACT_SEARCH_LIMIT:
        value, witness = ch.complexity_exact(cls, family)
        partitions = [[list(cell) for cell in level] for level in witness.levels]
        method = "exact"
    else:
        value = ch.complexity_greedy(cls, family)
        partitions = None
        method = "greedy"
    _emit(dumps_canonical({
        "gamma": value,
        "method": method,
        "witness_partitions": partitions,
    }), args.output)
    return 0


def cmd_simulate(args) -> int:
    model, members = _model_members(args)
    gr.member_exponents(args.n)   # sup_samples takes any n; keep it on the lattice
    sups = pr.sup_samples(model, members, args.n, args.reps, args.seed)
    mean_sup, std_error = pr.mean_se(sups)
    csv_text = _csv_text(("rep", "sup_value"),
                         [(i, _fmt(float(s))) for i, s in enumerate(sups)])
    if args.output:
        _emit(csv_text, args.output)
    summary = {
        "process": model.spec(), "class": args.cls, "n": args.n,
        "reps": args.reps, "seed": args.seed,
        "mean_sup": mean_sup, "std_error": std_error,
    }
    sys.stdout.write(dumps_canonical(summary) + "\n")
    if not args.output:
        sys.stdout.write(csv_text)
    return 0


def cmd_couple(args) -> int:
    model, members = _model_members(args)
    cp._check_block_length(args.n, args.q)                 # before any simulation
    cp._parity_blocks(args.n, args.q, args.reps, "even")
    t0 = time.perf_counter()
    # One draw, tagged as gap_samples tags it, serves the gaps and the
    # independence test.
    vals, replica = cp.coupled_paths(model, args.n, args.q, args.reps, args.seed,
                                     tag=args.q)
    sups = cp.sup_gaps(vals, replica, members)
    even = cp.block_independence_test(replica, args.q, "even")
    gap_mean, gap_se = pr.mean_se(sups)
    results = {
        "gap_mean": gap_mean,
        "gap_se": gap_se,
        "gap_max": float(sups.max()),
        "even_block_corr": even.pooled_corr,
        "even_block_threshold": even.threshold,
    }
    checks = [{"id": "even_block_independence", "passed": even.passed}]
    if model.is_markov:
        tau_hat = mx.estimate_tau(model, members, args.q, *cp.TAU_REPS, args.seed).value
        scaled = math.sqrt(args.n) * tau_hat
        results["tau_hat"] = tau_hat
        results["sqrt_n_tau"] = scaled
        results["gap_over_sqrt_n_tau"] = gap_mean / scaled if scaled > 0 else None
    return _report(
        t0, args.timing, args.output, command="couple",
        inputs={"process": model.spec(), "class": args.cls, "n": args.n,
                "q": args.q, "reps": args.reps, "seed": args.seed},
        results=results, checks=checks)


def cmd_strongapprox(args) -> int:
    model, members = _model_members(args)
    if not args.gamma >= 2:                                  # NaN fails it too
        raise CliError(f"--gamma must be >= 2 or inf, got {args.gamma}")
    t0 = time.perf_counter()
    rep = cp.strong_approx_experiment(model, members, args.n_grid, reps=args.reps,
                                      seed=args.seed, gamma_order=args.gamma)
    return _report(
        t0, args.timing, args.output, command="strongapprox",
        inputs={"process": model.spec(), "class": args.cls, "n_grid": args.n_grid,
                "gamma": args.gamma, "reps": args.reps, "seed": args.seed},
        results={"points": [dataclasses.asdict(p) for p in rep.points]},
        checks=[
            {"id": "gap_monotone_non_increasing", "passed": rep.monotone},
            {"id": "gap_below_assembled_bound", "passed": rep.within_bound},
        ])


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    results = ac.run_criteria(ac.suite_criteria(args.suite), seed=args.seed)
    for res in results:
        sys.stderr.write(res.line() + "\n")
    return _report(
        t0, args.timing, args.output, command="verify",
        # reps_scale stays, fixed at 1.0, so canonical bytes and digests hold.
        inputs={"suite": args.suite, "seed": args.seed, "reps_scale": 1.0},
        results={res.cid: res.details for res in results},
        checks=[{"id": res.cid, "title": res.title, "passed": res.passed}
                for res in results])


# -- parser ---------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing leaves it as is).

    Each subcommand takes ``--output`` and, of ``--seed``, ``--timing`` and
    ``--basis-size``, only those its handler reads; the Monte Carlo ones
    share ``--process``, ``--class`` and ``--reps``."""
    parser = argparse.ArgumentParser(
        prog="mixbound",
        description="block schedules, dependence-adapted norms, chaining "
                    "complexity and Monte Carlo bound validation",
        allow_abbrev=False,   # flags and config fields go by their full names
    )
    parser.add_argument("--config", help="JSON file of flag values; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, seed=False, timing=False, basis=False, model=False):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--output", default=None)
        if seed:
            p.add_argument("--seed", type=_seed, default=None)
        if timing:
            p.add_argument("--timing", action="store_true",
                           help="include wall clock in the JSON (breaks byte stability)")
        if basis:
            p.add_argument("--basis-size", type=int, default=3)
        if model:
            p.add_argument("--process", required=True)
            p.add_argument("--class", dest="cls", required=True)
            p.add_argument("--reps", type=int, default=200)
        p.set_defaults(func=func)
        return p

    p = add("schedule", cmd_schedule, "divisors and block lengths for one n", basis=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", required=True)

    p = add("rates", cmd_rates, "rate factors over a lattice range (CSV)", basis=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--r", type=float, default=4.0)
    p.add_argument("--n-min", type=int, default=10**3)
    p.add_argument("--n-max", type=int, default=10**6)

    p = add("norms", cmd_norms, "dependence norm and comparison factor")
    p.add_argument("--profile", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=float, default=4.0)
    p.add_argument("--curve", required=True, help="CSV of samples of f(X)")

    p = add("gamma", cmd_gamma, "partition complexity of a class file", basis=True)
    p.add_argument("--class-file", required=True)
    p.add_argument("--norms", required=True,
                   help="constant:l2 | constant:lr,r=4 | schedule:n=...,profile=...")

    p = add("simulate", cmd_simulate, "replicated sup statistics (CSV + summary)",
            seed=True, model=True)
    p.add_argument("--n", type=int, required=True)

    p = add("couple", cmd_couple, "replica coupling gap report", seed=True, timing=True,
            model=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("strongapprox", cmd_strongapprox, "Gaussian coupling gap across an n grid",
            seed=True, timing=True, model=True)
    p.add_argument("--n-grid", type=_int_list, default=(384, 1536, 6144))
    p.add_argument("--gamma", type=float, default=math.inf)

    p = add("verify", cmd_verify, "run an acceptance suite", seed=True, timing=True)
    p.add_argument("--suite", default="all",
                   choices=sorted(ac.SUITES))
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with the ``--config`` file's fields as flags right after the
    subcommand, where the command line's own flags, parsed later, win.  A field
    is ``--name=value``, with ``_`` in the name read as ``-``; a true field is
    the bare flag, and a false or null one is left out."""
    i, path = 0, None
    while i < len(argv):
        if argv[i] == "--config" and i + 1 < len(argv):
            path, i = argv[i + 1], i + 2
        elif argv[i].startswith("--config="):
            path, i = argv[i].partition("=")[2], i + 1
        else:
            break
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"config: {exc}")
    if not isinstance(config, dict):
        raise CliError("config: top level must be a JSON object")
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, (list, dict)):
            _build_parser().error(f"config: field {key!r} must be a string, "
                                  "number or boolean")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return argv[:i + 1] + flags + argv[i + 1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_with_config(argv))
    if "seed" in vars(args) and args.seed is None:
        text = os.environ.get("MIXBOUND_SEED", str(DEFAULT_SEED))
        try:
            args.seed = int(text)
        except ValueError:
            raise CliError(f"MIXBOUND_SEED must be an integer, got {text!r}") from None
        if args.seed < 0:
            raise CliError(f"MIXBOUND_SEED must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:  # GridError etc. are ValueErrors
        raise CliError(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
