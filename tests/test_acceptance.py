"""End-to-end acceptance run: every criterion at full scale, one printed
pass/fail line each, plus the byte-level determinism check of the verify
command across repeated runs and against the recorded reference digests."""
import ast
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

from mixbound import acceptance as ac
from mixbound import chaining, cli, grid, mixing, norms, rates
from mixbound import coupling as cp
from mixbound import processes as pr

SEED = 7
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _check_recorded(data: bytes, workload: str, key: str) -> None:
    """``data`` hashes to the digest the benchmark recorded for ``key``."""
    recorded = json.loads(DIGESTS.read_text())
    assert recorded["reference_seed"] == SEED
    assert hashlib.sha256(data).hexdigest() == recorded["reference"][workload][key], (
        f"{key} is not the output recorded in perfbench/digests.json; the digests "
        f"belong to the numpy and scipy they were recorded with (installed: numpy "
        f"{np.__version__}, scipy {scipy.__version__}), and perfbench/record_digests.py "
        f"re-records them from a commit whose outputs are known to be right")


def _run(cid):
    result = ac.CRITERIA[cid](seed=SEED)
    print(result.line())
    assert result.passed, f"{cid} failed: {result.details}"
    return result


def test_suites_keep_their_criteria_in_order():
    assert ac.SUITES == {
        "grid": ("A1", "A2"),
        "norms": ("A3", "A6", "A13"),
        "rates": ("A4", "A5"),
        "chaining": ("A7", "A8"),
        "coupling": ("A9", "A10", "A11", "A12", "A14"),
        "all": tuple(f"A{i}" for i in range(1, 15)),
    }
    assert list(ac.SUITES) == ["grid", "norms", "rates", "chaining", "coupling", "all"]


# A7, A12 and A14 are the slow three; the parse below covers them.
@pytest.mark.parametrize("cid", [c for c in ac.CRITERIA if c not in ("A7", "A12", "A14")])
def test_the_registrar_derives_each_criterion_seed_once(cid, monkeypatch):
    derive, seen = ac._derive_seed, []

    def spy(seed, ordinal):
        seen.append((seed, ordinal))
        return derive(seed, ordinal)
    monkeypatch.setattr(ac, "_derive_seed", spy)
    ac.CRITERIA[cid](seed=SEED)
    assert seen == [(SEED, int(cid[1:]))]


def test_only_the_registrar_derives_a_seed():
    tree = ast.parse(Path(ac.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_derive_seed"]
    registrar = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_criterion")
    assert len(calls) == 1 and calls[0] in set(ast.walk(registrar))


def test_a01_divisor_gap():
    result = _run("A1")
    assert result.details["worst_ratio"] <= 2.0


def _plant(monkeypatch, module, name, call, change):
    """Make call number ``call`` (from 1) of ``module.name`` return ``change``
    of its result; every other call is left as it is."""
    fn, count = getattr(module, name), []

    def planting(*args, **kwargs):
        count.append(1)
        out = fn(*args, **kwargs)
        return change(out) if len(count) == call else out
    monkeypatch.setattr(module, name, planting)


@pytest.mark.parametrize("ratio", [2.5, math.nan])
def test_a01_fails_on_one_planted_gap(ratio, monkeypatch):
    _plant(monkeypatch, grid, "divisor_chain", 100,
           lambda chain: dataclasses.replace(chain, max_ratio=ratio))
    result = ac.CRITERIA["A1"](seed=SEED)
    assert not result.passed and not result.details["worst_ratio"] <= 2.0


@pytest.mark.parametrize("call, factor", [(5, 1.0 + 1e-9), (5, math.nan),
                                          (25, 1.5), (25, 0.5), (25, math.nan)])
def test_a06_fails_on_one_planted_norm(call, factor, monkeypatch):
    # Calls 1-20 score flat curves and calls 21-40 general ones.
    _plant(monkeypatch, norms, "dependence_norm", call, lambda value: value * factor)
    result = ac.CRITERIA["A6"](seed=SEED)
    lo, hi = result.details["general_curve_ratio_range"]
    in_bound = result.details["flat_curve_worst_rel_err"] <= 1e-12 and \
        1.0 - 1e-12 <= lo and hi <= math.sqrt(2.0) * (1 + 1e-12)
    assert not result.passed and not in_bound


def test_a02_schedule_forms():
    _run("A2")


def test_a03_count_sandwich():
    result = _run("A3")
    assert result.details["violations"] == 0


def test_a04_envelopes():
    _run("A4")


def test_a04_margin_shows_one_planted_nan(monkeypatch):
    # Case 2's sixth q; the other cases keep their finite margins.
    _plant(monkeypatch, norms, "holder_factors", 2,
           lambda f: np.where(np.arange(f.size) == 5, math.nan, f))
    result = ac.CRITERIA["A4"](seed=SEED)
    margins = result.details["min_margins"]
    assert not result.passed and math.isnan(margins["case2"])
    assert all(math.isfinite(margins[f"case{c}"]) for c in (1, 3, 4))


def test_a05_rate_regimes():
    result = _run("A5")
    assert abs(result.details["fast_slope"]) <= 0.05
    assert abs(result.details["slow_slope"] - result.details["slow_predicted"]) <= 0.05
    assert result.details["critical_band"] <= 3.0


@pytest.mark.parametrize("name, call, change", [
    ("loglog_slope", 1, lambda slope: 0.06),                  # the fast slope
    ("loglog_slope", 2, lambda slope: math.nan),              # the slow slope
    ("rate_factors", 3, lambda f: np.where(np.arange(f.size) == 5, math.nan, f)),
])
def test_a05_fails_on_one_planted_value(name, call, change, monkeypatch):
    _plant(monkeypatch, rates, name, call, change)
    d = ac.CRITERIA["A5"](seed=SEED)
    in_bound = abs(d.details["fast_slope"]) <= 0.05 and d.details["critical_band"] <= 3.0 \
        and abs(d.details["slow_slope"] - d.details["slow_predicted"]) <= 0.05
    assert not d.passed and not in_bound


def test_a06_iid_norm_identity():
    _run("A6")


def test_a07_complexity_oracle():
    result = _run("A7")
    assert result.details["greedy_violations"] == 0


def test_a07_fails_on_one_planted_nan(monkeypatch):
    # The 40th of the 100 greedy searches against the exact one.
    _plant(monkeypatch, chaining, "complexity_greedy", 40, lambda value: math.nan)
    result = ac.CRITERIA["A7"](seed=SEED)
    assert not result.passed and result.details["greedy_violations"] == 1


def test_a08_chain_identity():
    result = _run("A8")
    assert result.details["max_residual"] < 1e-12
    assert result.details["binding_cases"] >= 5


@pytest.mark.parametrize("residual", [math.nan, 1.0])
def test_a08_fails_on_one_planted_residual(residual, monkeypatch):
    _plant(monkeypatch, chaining, "chain_decomposition", 3,
           lambda dec: dataclasses.replace(dec, residual=residual))
    result = ac.CRITERIA["A8"](seed=SEED)
    assert not result.passed and not result.details["max_residual"] < 1e-12


def test_a09_half_normal():
    _run("A9")


def test_a10_coupling_exactness():
    result = _run("A10")
    assert result.details["iid_max_gap"] == 0.0
    assert result.details["ma_q6_max_gap"] == 0.0
    assert result.details["ma_q12_max_gap"] == 0.0


@pytest.mark.parametrize("call, change", [
    (1, lambda gaps: gaps + 1e-3),       # iid is no longer exact
    (3, lambda gaps: gaps * math.nan),   # MA(3) at q = 12
    (5, lambda gaps: gaps * math.nan),   # the AR(1) sweep at q = 16
    (6, lambda gaps: gaps * 10.0),       # the AR(1) sweep stops decreasing
])
def test_a10_fails_on_one_planted_gap(call, change, monkeypatch):
    _plant(monkeypatch, cp, "gap_samples", call, change)
    result = ac.CRITERIA["A10"](seed=SEED)
    assert not result.passed


def test_a11_block_independence():
    _run("A11")


def test_a11_fails_on_one_planted_nan(monkeypatch):
    # One NaN on the raw paths makes the raw q = 2 correlation NaN; the
    # replicas, drawn before it is planted, keep theirs.
    def plant(out):
        vals, replica = out
        vals = vals.copy()
        vals[0, 0] = math.nan
        return vals, replica
    _plant(monkeypatch, cp, "coupled_paths", 1, plant)
    result = ac.CRITERIA["A11"](seed=SEED)
    assert math.isnan(result.details["raw_q2_corr"]) and not result.passed


def test_a12_bernstein_tails():
    result = _run("A12")
    for run in result.details["runs"]:
        assert run["applicable"]


@pytest.mark.parametrize("wald, applicable, passed", [
    (0.0, True, True), (0.2, True, False), (math.nan, True, False), (0.0, False, False)])
def test_a12_fails_on_one_planted_tail(wald, applicable, passed, monkeypatch):
    calls = []

    def fake(model, member, curve, profile, n, q, k, reps, seed):
        calls.append(k)
        planted = len(calls) == 3
        ucl = wald if planted else 0.0
        point = cp.TailPoint(u=1.0, threshold=1.0, exceedances=0, frequency=0.0,
                             wald_ucl=ucl, clopper_ucl=ucl, bound=0.1, passed=ucl <= 0.1)
        return cp.BernsteinReport(applicable=applicable or not planted, reason="",
                                  b=0.5, points=(point,))
    monkeypatch.setattr(cp, "bernstein_check", fake)
    result = ac.CRITERIA["A12"](seed=SEED)
    assert calls == [2, 3, 2, 3] and result.passed is passed


def test_a12_fails_on_one_planted_nan(monkeypatch):
    # The scale b of the third run (AR(1), k = 2) is NaN: that run's bound is
    # inapplicable, not passed on zero exceedances of a NaN threshold.
    _plant(monkeypatch, cp, "dependence_norm", 3, lambda b: math.nan)
    result = ac.CRITERIA["A12"](seed=SEED)
    assert [run["applicable"] for run in result.details["runs"]] == [True, True, False, True]
    assert not result.passed


def test_a13_variance_bound():
    _run("A13")


@pytest.mark.parametrize("module, name, call, change", [
    (ac, "_certified_norm_sq_lower", 3, lambda lower: 0.0),
    (ac, "_certified_norm_sq_lower", 8, lambda lower: math.nan),
    (pr.ProcessModel, "block_variance", 6, lambda var: math.nan),
])
def test_a13_fails_on_one_planted_row(module, name, call, change, monkeypatch):
    _plant(monkeypatch, module, name, call, change)
    result = ac.CRITERIA["A13"](seed=SEED)
    assert not result.passed
    assert not all(row["sigma2_sq"] <= row["twice_norm_sq_lower"]
                   for row in result.details["rows"])


def test_a14_strong_approx():
    result = _run("A14")
    gaps = [p["gap_mean"] for p in result.details["points"]]
    assert gaps == sorted(gaps, reverse=True)


def test_monte_carlo_criteria_peak_below_the_hoelder_table(traced_peak):
    # A4's power table of 10^6 floats is the floor of verify's exact checks;
    # A12 and A14 stream their paths and replicas below it.
    import scipy.signal   # noqa: F401  the AR(1) paths' lazy import, made untraced
    qs = sorted(set(int(x) for x in np.geomspace(1, 10**6, 40)))
    floor = min(traced_peak(norms.holder_factors, qs, 4.0, prof)
                for prof in (mixing.m_dependent_profile(7), mixing.polynomial_profile(3.0),
                             mixing.polynomial_profile(2.0), mixing.polynomial_profile(0.5)))
    for cid in ("A12", "A14"):
        peak = traced_peak(ac.run_criteria, [cid], SEED)
        assert peak < floor, f"{cid}: {peak / 2**20:.2f} MiB, A4's table {floor / 2**20:.2f} MiB"


def test_a15_determinism_across_runs(tmp_path):
    """Two identical (config, seed) verify runs are byte-identical; wall
    clock is kept out of the canonical report."""
    outs = []
    for run in (1, 2):
        out = tmp_path / f"verify_run{run}.json"
        code = cli.main(["verify", "--suite", "all", "--seed", str(SEED),
                         "--output", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert len(payload["checks"]) == len(ac.CRITERIA)
    _check_recorded(outs[0], "verify", "verify/report")
    print("[PASS] A15 verify reports byte-identical across two runs and to the record")


def test_rates_tables_match_the_recorded_digests(tmp_path):
    """The benchmark's ``rates`` tables do not depend on the seed: each CSV is
    byte-identical to the one recorded."""
    keys = [k for k in json.loads(DIGESTS.read_text())["reference"]["exact"]
            if k.startswith("rates/")]
    assert len(keys) == 5
    for key in keys:
        out = tmp_path / "rates.csv"
        assert cli.main(["rates", "--profile", key.split("/")[1], "--r", "4",
                         "--n-min", "1000", "--n-max", "10000000", "--output", str(out)]) == 0
        _check_recorded(out.read_bytes(), "exact", key)


def test_norms_reports_match_the_recorded_digests(tmp_path):
    """The benchmark's ``norms`` reports on its 10^5-point t(5) sample curve
    at the reference seed are byte-identical to the ones recorded."""
    curve = tmp_path / "curve.csv"
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 3]))
    np.savetxt(curve, rng.standard_t(5.0, 10**5), fmt="%.17g")
    for q in (8, 1000):
        out = tmp_path / f"norms-q{q}.json"
        assert cli.main(["norms", "--profile", "poly:m=1.5", "--q", str(q), "--r", "4",
                         "--curve", str(curve), "--output", str(out)]) == 0
        _check_recorded(out.read_bytes(), "exact", f"norms/q{q}")


def test_montecarlo_outputs_match_the_recorded_digests(tmp_path):
    """The benchmark's ``couple`` and ``strongapprox`` reports, and its renewal
    chain's paths and replicas, at the reference seed are the bytes recorded.
    Between them they read the AR(1) replica starts drawn per row chunk, the
    renewal chain's drawn whole, and a moving average rebuilt within one block."""
    for process, q in (("ar1:rho=0.9", 32), ("ma:m=3", 12)):
        out = tmp_path / "couple.json"
        assert cli.main(["couple", "--process", process, "--class", "lipschitz5",
                         "--n", "1536", "--q", str(q), "--reps", "1000",
                         "--seed", str(SEED), "--output", str(out)]) == 0
        _check_recorded(out.read_bytes(), "montecarlo", f"couple/{process}/json")
    out = tmp_path / "strongapprox.json"
    assert cli.main(["strongapprox", "--process", "ar1:rho=0.5", "--class", "lipschitz4",
                     "--n-grid", "384,1536,6144", "--reps", "400", "--seed", str(SEED),
                     "--output", str(out)]) == 0
    _check_recorded(out.read_bytes(), "montecarlo", "strongapprox/json")
    model = pr.lazy_renewal_model(1.5)
    vals, innov, _ = pr.simulate_many(model, 1536, 1000, SEED)
    _check_recorded(vals.tobytes(), "montecarlo", "lazy/paths")
    replica = cp.replicate_many(model, vals, innov, 32, SEED)
    _check_recorded(replica.tobytes(), "montecarlo", "lazy/replica")
