"""Verification suite: every acceptance criterion as a seeded, self-contained
check returning a pass/fail result with its measured quantities.

The suite is what ``mixbound verify`` runs; the pytest acceptance module
drives the same functions.  Criteria are grouped into the suites grid,
norms, rates, chaining and coupling.  Each criterion runs with a seed
derived from (seed, criterion id), so a report depends only on its seed
and suite, and identical runs give identical reports.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from . import chaining as ch
from . import coupling as cp
from . import function_classes as fc
from . import grid as gr
from . import mixing as mx
from . import norms as nm
from . import processes as pr
from . import rates as rt

REL_GUARD = 1e-12  # one-ulp guard band for exact inequalities hit with equality


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.cid} {self.title} ({self.seconds:.1f}s)"


def _derive_seed(seed: int, ordinal: int) -> int:
    return int(np.random.SeedSequence([int(seed), ordinal]).generate_state(1)[0])


CRITERIA: dict[str, Callable[[int], CriterionResult]] = {}
SUITES: dict[str, tuple[str, ...]] = {}


def _criterion(cid: str, suite: str, title: str):
    """Register a check as ``cid`` in ``CRITERIA`` and ``SUITES[suite]``, in definition order.

    The registered function takes the run's seed and passes the check the
    criterion's own, derived from (seed, criterion id); the check returns
    (passed, details), which the registered function times and wraps in a
    CriterionResult.
    """
    def register(check):
        @functools.wraps(check)
        def run(seed: int) -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = check(_derive_seed(seed, int(cid[1:])))
            return CriterionResult(cid=cid, title=title, passed=bool(passed),
                                   seconds=time.perf_counter() - t0, details=details)
        CRITERIA[cid] = run
        SUITES[suite] = SUITES.get(suite, ()) + (cid,)
        return run
    return register


# -- A1: divisor gaps --------------------------------------------------------


@_criterion("A1", "grid", "consecutive divisor gap at most two on the full lattice")
def criterion_divisor_gap(seed: int) -> tuple[bool, dict]:
    ratios = [gr.divisor_chain(n, basis).max_ratio for basis in (2, 3, 4)
              for n in gr.lattice_members(basis, 10**6 if basis == 3 else 10**5)]
    worst = float(np.max(ratios))   # NaN if any ratio is, and then fails
    return worst <= 2.0, {"members_checked": len(ratios), "worst_ratio": worst}


# -- A2: schedule closed forms -------------------------------------------------


def _smallest_divisor_at_least(n: int, x: float) -> int:
    for d in gr.divisor_chain(n).divisors:
        if d >= x:
            return d
    raise AssertionError("n itself always qualifies")  # pragma: no cover


@_criterion("A2", "grid", "block schedules: unit under independence, n/4 divisor "
            "under long memory, non-increasing levels")
def criterion_schedule_forms(seed: int) -> tuple[bool, dict]:
    members = gr.lattice_members(3, 2500)[:50]
    rng = np.random.default_rng(seed)
    iid = mx.iid_profile()
    failures = []
    for n in members:
        sched = gr.block_schedule(n, iid)
        if sched.q_seq != (1,):
            failures.append(("iid", n))
        # Memory at least n/4 pins the level-zero block at the n/4 divisor.
        for m in (int(math.ceil(n / 4)), n):
            q0 = gr.first_block_length(n, mx.m_dependent_profile(m))
            if q0 != _smallest_divisor_at_least(n, n / 4.0):
                failures.append(("mdep_closed_form", n, m))
        # Generic oracle: the scan equals the divisor at min(memory, n/4).
        m_rand = int(rng.integers(1, 2 * n))
        q0 = gr.first_block_length(n, mx.m_dependent_profile(m_rand))
        if q0 != _smallest_divisor_at_least(n, min(m_rand, n / 4.0)):
            failures.append(("mdep_oracle", n, m_rand))
        for prof in (mx.polynomial_profile(0.7), mx.exponential_profile(0.85)):
            seq = gr.block_schedule(n, prof).q_seq
            if any(a < b for a, b in zip(seq, seq[1:])):
                failures.append(("monotone", n, prof.spec()))
    return not failures, {"n_checked": len(members), "failures": failures[:10]}


# -- A3: count sandwich --------------------------------------------------------


@_criterion("A3", "norms", "integer count squeezed by the generalized inverse")
def criterion_count_sandwich(seed: int) -> tuple[bool, dict]:
    profiles = [mx.iid_profile(), mx.m_dependent_profile(7),
                mx.polynomial_profile(1.5), mx.exponential_profile(0.8)]
    # Open interval (0, 1/2): at u exactly 1/2 a profile flat at one makes the
    # upper bound fail by a tie in the generalized inverse; integrals never
    # see that single point.
    us = (2.0 * np.arange(1, 1001) - 1.0) / 4000.0
    bad = 0
    for prof in profiles:
        invs = [prof.inverse(2.0 * u) for u in us.tolist()]   # scalar, independent
        for q in (1, 10, 100, 1000):
            for mu, inv in zip(nm.active_lag_count(us, q, prof).tolist(), invs):
                if not (min(inv, q + 1) <= mu <= min(inv + 1, q + 1)):
                    bad += 1
    return bad == 0, {"grid_points": us.size, "violations": bad}


# -- A4: closed-form envelopes ---------------------------------------------------


@_criterion("A4", "rates", "exact comparison factor inside its closed-form envelopes")
def criterion_envelopes(seed: int) -> tuple[bool, dict]:
    qs = sorted(set(int(x) for x in np.geomspace(1, 10**6, 40)))
    r = 4.0
    cases = [   # report labels: finite memory, then polynomial fast, critical, slow
        (1, mx.m_dependent_profile(7)),
        (2, mx.polynomial_profile(3.0)),
        (3, mx.polynomial_profile(2.0)),
        (4, mx.polynomial_profile(0.5)),
    ]
    violations = []
    margins = {}
    for case, prof in cases:
        bs = nm.holder_factors(qs, r, prof)
        los, his = np.array([rt.closed_form_envelopes(q, prof, r) for q in qs]).T
        margins[f"case{case}"] = float(np.min([bs - los, his - bs]))   # NaN if any b is
        for q, lo, b, hi in zip(qs, los.tolist(), bs.tolist(), his.tolist()):
            if not (lo * (1 - REL_GUARD) <= b <= hi * (1 + REL_GUARD)):
                violations.append({"case": case, "q": q, "lo": lo, "b": b, "hi": hi})
    return not violations, {"q_grid": len(qs), "min_margins": margins,
                            "violations": violations[:5]}


# -- A5: rate regimes -------------------------------------------------------------


@_criterion("A5", "rates", "rate-factor growth matches the predicted regime exponents")
def criterion_rate_regimes(seed: int) -> tuple[bool, dict]:
    r = 4.0
    members = [n for n in gr.lattice_members(3, 10**7) if n >= 10**3]
    ns = np.asarray(members, dtype=float)
    slope_fast = rt.loglog_slope(ns, rt.rate_factors(members, r, mx.polynomial_profile(3.0)))
    slow = rt.rate_factors(members, r, mx.polynomial_profile(0.5)).tolist()
    slope_slow = rt.loglog_slope(ns, slow)
    _, predicted = rt.regime_classify(0.5, r)

    tail = [n for n in members if n >= 10**5]
    crit = rt.rate_factors(tail, r, mx.polynomial_profile(2.0)).tolist()
    crit_ratio = [f / math.log(n) ** 0.5 for n, f in zip(tail, crit)]
    band = float(np.max(crit_ratio) / np.min(crit_ratio))   # NaN if any ratio is

    eff = [n / f for n, f in zip(members, slow)]   # the effective sample sizes
    tail_eff = eff[-20:]
    growing = all(b > a for a, b in zip(tail_eff, tail_eff[1:])) or \
        rt.loglog_slope(ns[-40:], eff[-40:]) > 0.2
    return (abs(slope_fast) <= 0.05 and abs(slope_slow - predicted) <= 0.05
            and band <= 3.0 and growing), {
        "lattice_points": len(members), "fast_slope": slope_fast,
        "slow_slope": slope_slow, "slow_predicted": predicted,
        "critical_band": band, "effective_n_growing": growing}


# -- A6: independence norm identity ------------------------------------------------


@_criterion("A6", "norms", "independence collapses the norm to the plain second moment")
def criterion_iid_norm(seed: int) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    iid = mx.iid_profile()
    # Under independence the weight collapses to the unit indicator on
    # (0, 1/2]; the norm then equals the second moment exactly on flat
    # curves, and is squeezed between one and sqrt(2) times it in general.
    rels = []
    for _ in range(20):
        level = float(rng.uniform(0.1, 10.0))
        curve = nm.QuantileCurve.constant(level)
        q = int(rng.integers(0, 100))
        rels.append(abs(nm.dependence_norm(curve, q, iid) / curve.l2_norm() - 1.0))
    ratios = []
    for _ in range(20):
        k = int(rng.integers(1, 9))
        curve = nm.QuantileCurve.from_discrete(rng.uniform(0, 5, k), rng.dirichlet(np.ones(k)))
        ratios.append(nm.dependence_norm(curve, int(rng.integers(0, 100)), iid)
                      / curve.l2_norm())
    # np.max and np.min carry a NaN through, so a NaN fails the check.
    worst_flat = float(np.max(rels))
    lo, hi = float(np.min(ratios, initial=1.0)), float(np.max(ratios, initial=1.0))
    ok = worst_flat <= 1e-12 and 1.0 - 1e-12 <= lo and hi <= math.sqrt(2.0) * (1 + 1e-12)
    return ok, {"flat_curve_worst_rel_err": worst_flat,
                "general_curve_ratio_range": (lo, hi)}


# -- A7: complexity against the brute-force oracle -----------------------------------


def _oracle_all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _oracle_all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _oracle_complexity(cls: ch.FunctionClass, family: ch.NormFamily) -> float:
    """Independent enumeration of every admissible sequence to depth two.

    Level one runs over all partitions into at most four blocks, level two
    over every refinement within the sixteen-cell cap, and any remaining
    non-singleton cells are forced apart at level three (cap 256).  Cell
    norms are memoized; the enumeration logic shares nothing with the
    library's search.
    """
    size = cls.size
    idx = list(range(size))
    memo: dict[tuple[int, tuple[int, ...]], float] = {}

    def cell_norm(level: int, cell) -> float:
        key = (level, tuple(cell))
        if key not in memo:
            rows = cls.table[list(cell)]
            memo[key] = family.norm(level, rows.max(axis=0) - rows.min(axis=0),
                                    cls.weights)
        return memo[key]

    best = math.inf
    for p1 in _oracle_all_partitions(idx):
        if len(p1) > 4:
            continue
        options = [[ref for ref in _oracle_all_partitions(block)] for block in p1]
        for combo in itertools.product(*options):
            p2 = [cell for blocks in combo for cell in blocks]
            if len(p2) > 16:
                continue
            levels = [[idx], p1, p2]
            if any(len(c) > 1 for c in p2):
                levels.append([[i] for i in idx])
            worst = 0.0
            for f in idx:
                total = 0.0
                for level, part in enumerate(levels):
                    cell = next(c for c in part if f in c)
                    if len(cell) > 1:
                        total += 2.0 ** (level / 2.0) * cell_norm(level, sorted(cell))
                worst = max(worst, total)
            best = min(best, math.sqrt(2.0) * worst)
    return best


def _random_classes(rng, size, count):
    for _ in range(count):
        table = rng.normal(0.0, 1.0, (size, 24))
        weights = rng.dirichlet(np.ones(24))
        yield ch.FunctionClass(table=table, weights=weights)


@_criterion("A7", "chaining", "exact partition search equals brute-force enumeration; "
            "greedy never beats it")
def criterion_complexity_oracle(seed: int) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    families = [ch.l2_family(), ch.lr_family(4.0),
                ch.schedule_family(gr.block_schedule(36, mx.polynomial_profile(1.0))),
                ch.schedule_family(gr.block_schedule(48, mx.exponential_profile(0.7)))]
    mismatches = []
    for size in range(2, 7):
        for t, cls in enumerate(_random_classes(rng, size, 3)):
            fam = families[(size + t) % len(families)]
            exact, witness = ch.complexity_exact(cls, fam)
            oracle = _oracle_complexity(cls, fam)
            if exact != oracle:
                mismatches.append({"size": size, "exact": exact, "oracle": oracle})
            if ch.sequence_value(cls, fam, witness) != exact:
                mismatches.append({"size": size, "witness_mismatch": True})
    greedy_violations = 0
    for t, cls in enumerate(_random_classes(rng, 8, 100)):
        fam = families[t % len(families)]
        exact, _ = ch.complexity_exact(cls, fam)
        if not ch.complexity_greedy(cls, fam) >= exact:   # a NaN counts
            greedy_violations += 1
    return not mismatches and greedy_violations == 0, {
        "oracle_mismatches": mismatches[:5], "greedy_violations": greedy_violations}


# -- A8: chain identity ------------------------------------------------------------


@_criterion("A8", "chaining", "telescoping identity with stopping thresholds holds pointwise")
def criterion_chain_identity(seed: int) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    profiles = [mx.polynomial_profile(0.7), mx.exponential_profile(0.9),
                mx.iid_profile(), mx.m_dependent_profile(4)]
    residuals = []
    binding = 0
    for t in range(100):
        size = int(rng.integers(2, 7))
        npts = int(rng.integers(8, 32))
        table = rng.normal(0.0, 1.0, (size, npts))
        if t % 2 == 0:
            # Spiky weights with amplified gaps make thresholds bind.
            weights = rng.dirichlet(np.full(npts, 0.05))
            table[:, int(rng.integers(npts))] *= 40.0
        else:
            weights = rng.dirichlet(np.ones(npts))
        cls = ch.FunctionClass(table=table, weights=weights)
        idx = list(range(size))
        blocks = [sorted(b.tolist()) for b in
                  np.array_split(rng.permutation(idx), int(rng.integers(1, min(5, size + 1))))
                  if b.size]
        seq = ch.PartitionSequence(levels=(
            (tuple(idx),), tuple(tuple(b) for b in blocks), tuple((i,) for i in idx)))
        n = int(rng.choice([6, 12, 36, 96, 384]))
        dec = ch.chain_decomposition(cls, int(rng.integers(size)), int(rng.integers(size)),
                                     seq, profiles[t % len(profiles)], n)
        residuals.append(dec.residual)
        binding += dec.binding
    worst = float(np.max(residuals))   # NaN if any residual is, and then fails
    return worst < 1e-12 and binding >= 5, {
        "max_residual": worst, "binding_cases": binding, "tuples": 100}


# -- A9: half-normal calibration ------------------------------------------------------


@_criterion("A9", "coupling", "mean absolute scaled average matches the half-normal value")
def criterion_half_normal(seed: int) -> tuple[bool, dict]:
    reps = 2000
    model = pr.iid_model()
    member = fc.make_class("identity", model).members[0]
    vals, _, _ = pr.simulate_many(model, 384, reps, seed)
    est, se = pr.mean_se(np.abs(pr.centered_sums(member, vals)))
    target = math.sqrt(2.0 / math.pi)
    return abs(est - target) <= 3.0 * se, {
        "estimate": est, "std_error": se, "target": target, "reps": reps}


# -- A10: coupling exactness and contraction ------------------------------------------


@_criterion("A10", "coupling", "replica gap vanishes for memoryless cases and contracts "
            "geometrically for the autoregression")
def criterion_coupling_exactness(seed: int) -> tuple[bool, dict]:
    iid, ma, ar = pr.iid_model(), pr.ma_model(3), pr.ar1_model(0.9)
    exact = {key: float(cp.gap_samples(model, fc.make_class("lipschitz5", model).members,
                                       384, q, 20, seed).max())
             for key, model, q in (("iid_max_gap", iid, 12), ("ma_q6_max_gap", ma, 6),
                                   ("ma_q12_max_gap", ma, 12))}
    qs, members = (8, 16, 32), fc.make_class("lipschitz5", ar).members
    means = [float(cp.gap_samples(ar, members, 384, q, 200, seed).mean()) for q in qs]
    slope = rt.ls_slope(np.asarray(qs, dtype=float), np.log(means))
    lo, hi = 1.3 * math.log(0.9), 0.7 * math.log(0.9)
    return (all(gap == 0.0 for gap in exact.values())
            and all(a > b for a, b in zip(means, means[1:]))
            and lo <= slope <= hi), {
        **exact, "ar1_gap_means": means, "ar1_log_slope": slope,
        "ar1_slope_band": [lo, hi]}


# -- A11: block independence ------------------------------------------------------------


@_criterion("A11", "coupling", "replica same-parity blocks uncorrelated; raw short blocks "
            "fail the same test")
def criterion_block_independence(seed: int) -> tuple[bool, dict]:
    model = pr.ar1_model(0.9)
    vals, replica = cp.coupled_paths(model, 384, 8, 200, seed, tag=0)
    even = cp.block_independence_test(replica, 8, "even")
    odd = cp.block_independence_test(replica, 8, "odd")
    raw = cp.block_independence_test(vals, 2, "even")
    # The raw blocks must fail on their correlation, so a NaN one fails the check.
    return even.passed and odd.passed and abs(raw.pooled_corr) >= raw.threshold, {
        "replica_even_corr": even.pooled_corr, "replica_odd_corr": odd.pooled_corr,
        "threshold": even.threshold,
        "raw_q2_corr": raw.pooled_corr, "raw_threshold": raw.threshold,
    }


# -- A12: block-sum tails ---------------------------------------------------------------


@_criterion("A12", "coupling", "replica tail frequencies consistent with the block exponential "
            "bound")
def criterion_bernstein_tails(seed: int) -> tuple[bool, dict]:
    reps = 5000
    curve = nm.QuantileCurve.constant(0.5)  # |f| is identically one half
    checks = [(model, k, cp.bernstein_check(
        model, fc.make_class("indicator", model).members[0], curve, profile,
        n=1536, q=8, k=k, reps=reps, seed=seed))
        for model, profile in [(pr.iid_model(), mx.iid_profile()),
                               (pr.ar1_model(0.5), mx.exponential_profile(0.5))]
        for k in (2, 3)]
    return all(rep.passed for _, _, rep in checks), {"reps": reps, "runs": [{
        "model": model.spec(), "k": k, "applicable": rep.applicable,
        "points": [
            {"u": p.u, "freq": p.frequency, "wald_ucl": p.wald_ucl,
             "clopper_ucl": p.clopper_ucl, "bound": p.bound,
             "passed": p.passed} for p in rep.points
        ],
    } for model, k, rep in checks]}


# -- A13: variance bound ------------------------------------------------------------------


def _certified_norm_sq_lower(sd: float, q: int, profile: mx.MixingProfile, base) -> float:
    """Lower bound of the squared dependence norm of the identity.

    The Gaussian quantile curve is evaluated at the right endpoints of the
    grid ``base`` merged with the half-levels; since it is non-increasing
    this under-estimates the exact integral, so the check is conservative.
    """
    half = profile.half_levels(q)
    grid = np.unique(np.concatenate([base, half]))
    a, b = grid[:-1], grid[1:]
    mu_right = nm.active_lag_count(b, q, profile).astype(float)
    q_right = np.clip(sd * ndtri(1.0 - np.minimum(b, 1.0) / 2.0), 0.0, None)
    return 2.0 * float(((b - a) * mu_right * q_right**2).sum())


@_criterion("A13", "norms", "analytic block variance below twice the squared dependence norm")
def criterion_variance_bound(seed: int) -> tuple[bool, dict]:
    rows = []
    base = np.linspace(0.0, 1.0, 100001)
    for rho in (0.5, 0.9):
        model = pr.ar1_model(rho)
        profile = mx.exponential_profile(rho)  # dominates twice the true mixing level
        rows += [{"rho": rho, "q": q, "sigma2_sq": model.block_variance(q),
                  "twice_norm_sq_lower": 2.0 * _certified_norm_sq_lower(
                      model.marginal_sd(), q, profile, base)} for q in (4, 8, 16, 32)]
    return all(row["sigma2_sq"] <= row["twice_norm_sq_lower"] for row in rows), {"rows": rows}


# -- A14: strong approximation trend -------------------------------------------------------


@_criterion("A14", "coupling", "Gaussian coupling gap non-increasing in n and below "
            "the assembled bound")
def criterion_strong_approx(seed: int) -> tuple[bool, dict]:
    reps = 400
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz4", model).members
    rep = cp.strong_approx_experiment(model, members, (384, 1536, 6144),
                                      reps=reps, seed=seed)
    points = [{
        "n": p.n, "q": p.q, "gap_mean": p.gap_mean, "gap_se": p.gap_se,
        "bound": p.bound, "implied_ratio": p.implied_ratio,
        "tau_hat": p.tau_hat,
    } for p in rep.points]
    return rep.monotone and rep.within_bound, {
        "reps": reps, "points": points, "monotone": rep.monotone,
        "within_bound": rep.within_bound}


# -- registry and runner --------------------------------------------------------------------

SUITES["all"] = tuple(CRITERIA)


def run_criteria(cids, seed: int) -> list[CriterionResult]:
    """Run criteria in registry order with per-criterion derived seeds.

    Each criterion's seed depends only on (seed, criterion id), so its
    result does not depend on which other criteria run.
    """
    cids = list(cids)
    return [CRITERIA[cid](seed=seed) for cid in CRITERIA if cid in cids]


def suite_criteria(name: str) -> tuple[str, ...]:
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[name]
