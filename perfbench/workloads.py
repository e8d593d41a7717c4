"""The benchmark's three workloads as lists of operations.

Each operation drives mixbound the way a user does: through the public CLI
(``mixbound.cli.main``, called in-process) or, where the CLI cannot reach a
model, through the library's entry points.  An operation is split in two:
``call`` makes the program calls, and is the only part the runner times;
``check`` then reads what they produced, raises ``OpFailed`` when a
correctness check fails, and returns the canonical outputs as bytes, keyed
by name.  The runner digests the outputs and compares them across passes and
against the recorded reference digests.

Inputs (class files, the sample curve, the schedule members) are generated
from the benchmark seed; the program only ever sees the generated files.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("verify", "exact", "montecarlo")

RATE_PROFILES = ("poly:m=0.5", "poly:m=2", "poly:m=3", "expo:l=0.7", "mdep:m=50")
RATE_RANGE = (10**3, 10**7)
GAMMA_FAMILIES = ("constant:l2", "constant:lr,r=4",
                  "schedule:n=384,profile=poly:m=1",
                  "schedule:n=1296,profile=expo:l=0.7")
GAMMA_EXACT_FILES = 48
GAMMA_GREEDY_FILES = 3
GAMMA_POINTS = 24
NORMS_SAMPLES = 10**5
NORMS_PROFILE = "poly:m=1.5"
SCHEDULE_PROFILES = ("poly:m=1", "expo:l=0.7", "mdep:m=50", "poly:m=0.5",
                     "poly:m=3", "expo:l=0.9")
REL_TOL = 1e-9   # outputs carry 12 significant digits


class OpFailed(Exception):
    """An operation exited non-zero or its output failed a check."""


@dataclass(frozen=True)
class Op:
    stage: str                               # reported stage (CLI subcommand)
    name: str                                # unique key for digests
    call: Callable[[], object]               # the program calls (timed)
    check: Callable[[object], dict[str, bytes]]  # checks, canonical outputs
    fixed: bool = False                      # outputs do not depend on the seed

    def run(self) -> dict[str, bytes]:
        return self.check(self.call())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OpFailed(message)


def _cli(argv: list[str]) -> str:
    """Run ``mixbound`` in-process; return its stdout, raise on a non-zero exit."""
    from mixbound import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            err.write(f"{exc.code}\n")
    if code != 0:
        raise OpFailed(f"mixbound {argv[0]} exited {code}: {err.getvalue()[-400:]}")
    return out.getvalue()


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def lattice(lo: int, hi: int) -> list[int]:
    """Admissible sizes 2^a 3^b 5^c (a, b >= 1) in [lo, hi], built independently."""
    out = []
    p2 = 2
    while p2 <= hi:
        p3 = p2 * 3
        while p3 <= hi:
            v = p3
            while v <= hi:
                if v >= lo:
                    out.append(v)
                v *= 5
            p3 *= 3
        p2 *= 2
    return sorted(out)


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


# -- verify ---------------------------------------------------------------------


def verify_ops(seed: int, work: Path) -> list[Op]:
    out = work / "verify.json"

    def call():
        return _cli(["verify", "--suite", "all", "--seed", str(seed), "--output", str(out)])

    def check(_):
        data = out.read_bytes()
        checks = json.loads(data)["checks"]
        _expect(len(checks) == 14 and all(c["passed"] for c in checks),
                "verify report does not list 14 passing criteria")
        return {"report": data}

    return [Op("verify", "verify", call, check)]


# -- exact ------------------------------------------------------------------------


def _rates_op(spec: str, work: Path) -> Op:
    out = work / f"rates-{spec.replace(':', '_').replace('=', '')}.csv"
    expected_n = lattice(*RATE_RANGE)

    def call():
        return _cli(["rates", "--profile", spec, "--r", "4", "--n-min", str(RATE_RANGE[0]),
                     "--n-max", str(RATE_RANGE[1]), "--output", str(out)])

    def check(_):
        data = out.read_bytes()
        lines = data.decode().splitlines()
        _expect(lines[0] == "n,q_n0,frak_n,effective_n,regime,lower_env,upper_env",
                "rates: unexpected CSV header")
        rows = [line.split(",") for line in lines[1:]]
        _expect([int(r[0]) for r in rows] == expected_n,
                f"rates: rows are not the {len(expected_n)} lattice members")
        for r in rows:
            n, q0, frak, eff = int(r[0]), int(r[1]), float(r[2]), float(r[3])
            _expect(n % q0 == 0, f"rates: q_n0={q0} does not divide n={n}")
            _expect(frak > 0 and _close(eff, n / frak), f"rates: n/frak_n != effective_n at n={n}")
            if r[5]:
                _expect(float(r[5]) <= math.sqrt(frak) * (1 + REL_TOL) and
                        math.sqrt(frak) <= float(r[6]) * (1 + REL_TOL),
                        f"rates: sqrt(frak_n) outside its envelopes at n={n}")
        return {"csv": data}

    return Op("rates", f"rates/{spec}", call, check, fixed=True)


def _write_class(path: Path, rng: np.random.Generator, size: int) -> None:
    table = rng.normal(0.0, 1.0, (size, GAMMA_POINTS))
    weights = rng.dirichlet(np.ones(GAMMA_POINTS))
    path.write_text(json.dumps({"table": table.tolist(), "weights": weights.tolist()}))


def _check_witness(levels, size: int) -> None:
    everything = list(range(size))
    _expect(levels[0] == [everything], "gamma: level 0 is not the whole class")
    for lvl, part in enumerate(levels):
        _expect(sorted(i for cell in part for i in cell) == everything,
                f"gamma: level {lvl} is not a partition")
        _expect(len(part) <= 2 ** (2 ** lvl), f"gamma: level {lvl} exceeds its cap")
    for lo, hi in zip(levels, levels[1:]):
        _expect(all(any(set(c) <= set(p) for p in lo) for c in hi),
                "gamma: levels are not nested")
    _expect(all(len(c) == 1 for c in levels[-1]), "gamma: witness does not separate")


def _gamma_op(path: Path, family: str, size: int) -> Op:
    out = path.with_suffix(".out.json")

    def call():
        return _cli(["gamma", "--class-file", str(path), "--norms", family,
                     "--output", str(out)])

    def check(_):
        data = out.read_bytes()
        res = json.loads(data)
        _expect(isinstance(res["gamma"], float) and 0.0 < res["gamma"] < math.inf,
                "gamma: value is not a positive finite number")
        if size <= 8:
            _expect(res["method"] == "exact", "gamma: size-8 class not searched exactly")
            _check_witness(res["witness_partitions"], size)
        else:
            _expect(res["method"] == "greedy" and res["witness_partitions"] is None,
                    "gamma: large class not routed to the greedy path")
        return {"json": data}

    return Op("gamma", f"gamma/{path.stem}", call, check)


def _norms_op(seed: int, work: Path) -> Op:
    curve = work / "curve.csv"
    sample = _rng(seed, 3).standard_t(5.0, NORMS_SAMPLES)
    np.savetxt(curve, sample, fmt="%.17g")
    l4 = float(np.mean(np.abs(sample) ** 4) ** 0.25)

    outs = {q: work / f"norms-q{q}.json" for q in (8, 1000)}

    def call():
        for q, out in outs.items():
            _cli(["norms", "--profile", NORMS_PROFILE, "--q", str(q), "--r", "4",
                  "--curve", str(curve), "--output", str(out)])

    def check(_):
        outputs, norms = {}, []
        for q, out in outs.items():
            data = out.read_bytes()
            res = json.loads(data)
            mu = res["mu_breakpoints"]
            _expect(0 < len(mu) <= q + 1 and mu == sorted(mu) and mu[-1] == 0.5,
                    f"norms: bad mu breakpoints at q={q}")
            # Hoelder comparison: the dependence norm is at most b_r * ||f||_4.
            _expect(0 < res["q_norm"] <= res["b_r"] * l4 * (1 + REL_TOL),
                    f"norms: q_norm exceeds b_r * ||f||_4 at q={q}")
            norms.append(res["q_norm"])
            outputs[f"q{q}"] = data
        _expect(norms[0] <= norms[1], "norms: norm decreased as q grew")
        return outputs

    return Op("norms", "norms", call, check)


def _schedule_op(n: int, spec: str, work: Path) -> Op:
    out = work / f"schedule-{n}.json"

    def call():
        return _cli(["schedule", "--n", str(n), "--profile", spec, "--output", str(out)])

    def check(_):
        data = out.read_bytes()
        res = json.loads(data)
        q_seq = res["q_seq"]
        _expect(res["divisors"] == divisors(n), f"schedule: wrong divisors of {n}")
        _expect(q_seq[-1] == 1 and all(a >= b for a, b in zip(q_seq, q_seq[1:]))
                and all(n % q == 0 for q in q_seq), f"schedule: bad block lengths for {n}")
        return {"json": data}

    return Op("schedule", f"schedule/{n}/{spec}", call, check)


def exact_ops(seed: int, work: Path) -> list[Op]:
    ops = [_rates_op(spec, work) for spec in RATE_PROFILES]
    rng = _rng(seed, 1)
    for i in range(GAMMA_EXACT_FILES + GAMMA_GREEDY_FILES):
        size = 8 if i < GAMMA_EXACT_FILES else 12
        path = work / f"class-{i:02d}.json"
        _write_class(path, rng, size)
        ops.append(_gamma_op(path, GAMMA_FAMILIES[i % len(GAMMA_FAMILIES)], size))
    ops.append(_norms_op(seed, work))
    members = _rng(seed, 2).choice(lattice(*RATE_RANGE), len(SCHEDULE_PROFILES),
                                   replace=False)
    ops += [_schedule_op(int(n), spec, work) for n, spec in zip(members, SCHEDULE_PROFILES)]
    return ops


# -- montecarlo -----------------------------------------------------------------------


def _simulate_op(seed: int, process: str, work: Path) -> Op:
    out = work / f"simulate-{process.replace(':', '_').replace('=', '')}.csv"
    reps = 1000

    def call():
        return _cli(["simulate", "--process", process, "--class", "lipschitz5",
                     "--n", "6144", "--reps", str(reps), "--seed", str(seed),
                     "--output", str(out)])

    def check(summary):
        data = out.read_bytes()
        sups = [float(line.split(",")[1]) for line in data.decode().splitlines()[1:]]
        res = json.loads(summary)
        _expect(len(sups) == reps and min(sups) >= 0.0, "simulate: bad sup column")
        _expect(math.isclose(res["mean_sup"], math.fsum(sups) / reps, rel_tol=1e-8),
                "simulate: summary mean disagrees with the CSV")
        return {"csv": data, "summary": summary.encode()}

    return Op("simulate", f"simulate/{process}", call, check)


def _couple_op(seed: int, process: str, q: int, work: Path) -> Op:
    out = work / f"couple-{process.replace(':', '_').replace('=', '')}.json"

    def call():
        return _cli(["couple", "--process", process, "--class", "lipschitz5",
                     "--n", "1536", "--q", str(q), "--reps", "1000", "--seed", str(seed),
                     "--output", str(out)])

    def check(_):
        data = out.read_bytes()
        rep = json.loads(data)
        res = rep["results"]
        _expect(all(c["passed"] for c in rep["checks"]), "couple: a report check failed")
        _expect(res["gap_max"] >= res["gap_mean"] >= 0.0, "couple: inconsistent gaps")
        if process.startswith("ma:"):
            # Memory within one block: the replica reproduces the path exactly.
            _expect(res["gap_max"] == 0.0, "couple: moving-average replica is not exact")
        else:
            _expect(res["tau_hat"] > 0.0, "couple: no dependence estimate for AR(1)")
        return {"json": data}

    return Op("couple", f"couple/{process}", call, check)


def _strongapprox_op(seed: int, work: Path) -> Op:
    out = work / "strongapprox.json"

    def call():
        return _cli(["strongapprox", "--process", "ar1:rho=0.5", "--class", "lipschitz4",
                     "--n-grid", "384,1536,6144", "--reps", "400", "--seed", str(seed),
                     "--output", str(out)])

    def check(_):
        data = out.read_bytes()
        points = json.loads(data)["results"]["points"]
        _expect([p["n"] for p in points] == [384, 1536, 6144], "strongapprox: bad n grid")
        return {"json": data}

    return Op("strongapprox", "strongapprox", call, check)


def _lazy_op(seed: int) -> Op:
    """The heavy-tailed renewal chain, which ``make_class`` refuses."""

    def call():
        from mixbound import coupling as cp
        from mixbound import function_classes as fc
        from mixbound import mixing as mx
        from mixbound import processes as pr

        model = pr.lazy_renewal_model(1.5)
        bounded = fc.make_class("lipschitz4", pr.ar1_model(0.5)).members
        members = fc.mc_means(bounded, model, draws=10**6, seed=seed)
        vals, innov, starts = pr.simulate_many(model, 1536, 1000, seed)
        replica = cp.replicate_many(model, vals, innov, 32, seed)
        tau = mx.estimate_tau(model, members, 32, 200, 200, seed)
        return members, vals, innov, starts, replica, tau

    def check(result):
        members, vals, innov, starts, replica, tau = result
        _expect(bool(np.all(vals >= 0) and np.all(vals == np.floor(vals))),
                "lazy: path values are not non-negative integers")
        _expect(bool(np.array_equal(replica[:, :32], vals[:, :32])),
                "lazy: replica block zero differs from the path")
        _expect(0.0 <= tau.value <= 1.0 and tau.std_error >= 0.0,
                "lazy: normalised tau outside [0, 1]")
        means = np.array([m.mean for m in members])
        _expect(bool(np.all(np.isfinite(means))), "lazy: Monte Carlo means not finite")
        return {"paths": vals.tobytes(), "innovations": innov.tobytes(),
                "starts": starts.tobytes(), "replica": replica.tobytes(),
                "means": means.tobytes(),
                "tau": f"{tau.value.hex()} {tau.std_error.hex()}".encode()}

    return Op("lazy", "lazy", call, check)


def montecarlo_ops(seed: int, work: Path) -> list[Op]:
    return [
        _simulate_op(seed, "ar1:rho=0.9", work),
        _simulate_op(seed, "ma:m=3", work),
        _couple_op(seed, "ar1:rho=0.9", 32, work),
        _couple_op(seed, "ma:m=3", 12, work),
        _strongapprox_op(seed, work),
        _lazy_op(seed),
    ]


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's inputs under ``work`` and return its operations."""
    return {"verify": verify_ops, "exact": exact_ops,
            "montecarlo": montecarlo_ops}[workload](seed, work)
