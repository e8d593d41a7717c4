import dataclasses
import json
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mixbound import cli
from mixbound import coupling as cp
from mixbound import function_classes as fc
from mixbound import grid
from mixbound import mixing as mx
from mixbound import norms as nm
from mixbound import processes as pr
from mixbound import rates as rt


def test_build_replica_requires_divisor():
    with pytest.raises(cp.CouplingError, match="q=7 does not divide n=384"):
        cp.coupled_paths(pr.ar1_model(0.5), 384, 7, 3, seed=1, tag=7)


def test_replica_iid_identical():
    vals, replica = cp.coupled_paths(pr.iid_model(), 384, 12, 3, seed=2, tag=12)
    assert np.array_equal(replica, vals)
    # The path is read-only and serves as its own replica, without a copy.
    assert not vals.flags.writeable and np.shares_memory(vals, replica)
    with pytest.raises(ValueError):
        vals[0, 0] = 1.0


def test_replica_ma_exact_when_block_covers_memory():
    model = pr.ma_model(3)
    vals, innov, _ = pr.simulate_many(model, 384, 3, seed=3)
    for q in (6, 12):
        assert np.array_equal(cp.replicate_many(model, vals, innov, q, seed=3), vals)
    assert not np.array_equal(cp.replicate_many(model, vals, innov, 2, seed=3), vals)


def _reference_replica(model, values, innovations, q, rng):
    """Per-block, per-step replica loops: the reference for replicate_many."""
    if model.kind == "iid":
        return values.copy()
    if model.kind == "ma":
        reps, total = innovations.shape
        m = model.m
        n = total - m
        w = np.asarray(model.weights)
        out = np.empty((reps, n))
        for j in range(n // q):
            lo_t, hi_t = q * j + 1 - m, q * j + q
            window = innovations[:, np.arange(lo_t, hi_t + 1) + m - 1].copy()
            fresh = (np.arange(lo_t, hi_t + 1) <= q * (j - 1)) if j >= 1 \
                else np.zeros(hi_t - lo_t + 1, dtype=bool)
            if fresh.any():
                window[:, fresh] = model.sigma * rng.standard_normal(
                    (reps, int(fresh.sum())))
            vals = np.zeros((reps, q))
            for jj in range(m + 1):
                vals += w[jj] * window[:, m - jj: m - jj + q]
            out[:, q * j: q * j + q] = vals
        return out
    reps, n = innovations.shape
    nblocks = n // q
    out = np.empty((reps, n))
    out[:, :q] = values[:, :q]
    state0 = model.stationary_sample(reps * nblocks, rng).reshape(reps, nblocks)
    for j in range(1, nblocks):
        state = state0[:, j]
        for u in range(q):
            state = model.step(state, innovations[:, q * (j - 1) + u])
        for u in range(q):
            state = model.step(state, innovations[:, q * j + u])
            out[:, q * j + u] = state
    return out


@pytest.mark.parametrize("model", [
    pr.iid_model(1.3), pr.ar1_model(0.9, sigma=0.7), pr.lazy_renewal_model(1.5),
    pr.ma_model(3), pr.ma_model(7, sigma=1.2),
], ids=lambda m: m.spec())
def test_replicate_many_matches_per_block_loops(model):
    # The memory reaches past one block (fresh noise) at q = 1 for both moving
    # averages and at q = 4 for MA(7); q = 12 and q = n cover it.
    n = 96
    for reps in (1, 40):
        vals, innov, _ = pr.simulate_many(model, n, reps, seed=reps)
        for q in (1, 4, 12, n):
            got = cp.replicate_many(model, vals, innov, q, seed=3, tag=q)
            rng = pr.seeded_rng(3, 0xC0FF, q)
            want = _reference_replica(model, vals, innov, q, rng)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", [pr.ar1_model(0.9, sigma=0.7), pr.lazy_renewal_model(1.5)],
                         ids=lambda m: m.spec())
@pytest.mark.parametrize("groups", [None, (3, 7)], ids=["one-window", "small-windows"])
def test_replicas_step_time_contiguous_innovations_on_a_copy(model, groups, monkeypatch):
    # q = 1 with one rep steps a (1, 95, 1) block: time-contiguous already.
    # q = n leaves no block after the first: nothing to step.
    if groups:   # row groups of 3 states, time windows of 7 // 3 steps
        monkeypatch.setattr(pr, "_LANES", groups[0])
        monkeypatch.setattr(pr, "_TIME_BLOCK", groups[1])
    n = 96
    for reps, q in ((1, 1), (1, 12), (40, 1), (40, 12), (40, n)):
        vals, innov, _ = pr.simulate_many(model, n, reps, seed=reps)
        kept = innov.copy()
        got = cp.replicate_many(model, vals, innov, q, seed=3, tag=q)
        assert innov.tobytes() == kept.tobytes()
        want = _reference_replica(model, vals, innov, q, pr.seeded_rng(3, 0xC0FF, q))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_replica_marginal_law_ks():
    model = pr.ar1_model(0.8)
    vals, innov, _ = pr.simulate_many(model, 768, 800, seed=4)
    replica = cp.replicate_many(model, vals, innov, 16, seed=4)
    for col in (100, 400, 700):
        stat = ks_2samp(vals[:, col], replica[:, col], method="asymp")
        assert stat.pvalue > 0.01


def test_replica_block_zero_matches_path():
    model = pr.ar1_model(0.9)
    vals, innov, _ = pr.simulate_many(model, 384, 10, seed=5)
    replica = cp.replicate_many(model, vals, innov, 32, seed=5)
    assert np.array_equal(replica[:, :32], vals[:, :32])
    assert not np.array_equal(replica[:, 32:64], vals[:, 32:64])


def test_coupling_gap_zero_cases():
    iid = pr.iid_model()
    members = fc.make_class("lipschitz5", iid).members
    gaps = cp.sup_gaps(*cp.coupled_paths(iid, 384, 12, 5, seed=6, tag=12), members)
    assert gaps.shape == (5,) and np.all(gaps == 0.0)

    ma = pr.ma_model(3)
    members_ma = fc.make_class("lipschitz5", ma).members
    for q in (6, 12):
        assert np.all(cp.gap_samples(ma, members_ma, 384, q, 5, seed=7) == 0.0)


def test_coupling_gap_ratio_reported(capsys):
    code = cli.main(["couple", "--process", "ar1:rho=0.9", "--class", "lipschitz4",
                     "--n", "384", "--q", "8", "--reps", "40", "--seed", "8"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["sqrt_n_tau"] == pytest.approx(math.sqrt(384) * res["tau_hat"], rel=1e-10)
    assert res["gap_over_sqrt_n_tau"] == pytest.approx(
        res["gap_mean"] / res["sqrt_n_tau"], rel=1e-10)
    assert res["gap_mean"] > 0 and res["tau_hat"] > 0


def test_gap_sweep_contraction():
    # A10's AR(1) contraction check, at a second seed.
    model = pr.ar1_model(0.9)
    members = fc.make_class("lipschitz5", model).members
    qs = (8, 16, 32)
    means = [float(cp.gap_samples(model, members, 384, q, reps=200, seed=9).mean())
             for q in qs]
    assert all(a > b for a, b in zip(means, means[1:]))
    slope = rt.ls_slope(np.asarray(qs, dtype=float), np.log(means))
    target = math.log(0.9)
    assert 1.3 * target <= slope <= 0.7 * target


def test_block_independence_replica_passes_raw_fails():
    model = pr.ar1_model(0.9)
    vals, innov, _ = pr.simulate_many(model, 384, 200, seed=10)
    replica = cp.replicate_many(model, vals, innov, 8, seed=10)
    assert cp.block_independence_test(replica, 8, "even").passed
    assert cp.block_independence_test(replica, 8, "odd").passed
    assert not cp.block_independence_test(vals, 2, "even").passed


def test_block_independence_ma_memory_beyond_block():
    # MA(7) with q = 4: each replica block draws fresh noise for the part of
    # its window that reaches back past the previous block.
    model = pr.ma_model(7)
    vals, replica = cp.coupled_paths(model, 384, 4, 200, seed=1, tag=0)
    assert cp.block_independence_test(replica, 4, "even").passed
    assert cp.block_independence_test(replica, 4, "odd").passed
    assert not cp.block_independence_test(vals, 4, "even").passed
    assert not cp.block_independence_test(vals, 4, "odd").passed


def test_block_independence_needs_enough_blocks():
    vals = np.zeros((3, 24))
    with pytest.raises(cp.CouplingError):
        cp.block_independence_test(vals, 12, "even")


@pytest.mark.parametrize("q", [0, -3])
def test_block_independence_rejects_q_below_one(q):
    with pytest.raises(cp.CouplingError, match=f"q must be >= 1, got {q}"):
        cp.block_independence_test(np.zeros((40, 96)), q, "even")


def test_block_independence_rejects_unknown_parity():
    vals = np.zeros((40, 96))
    with pytest.raises(cp.CouplingError, match="parity"):
        cp.block_independence_test(vals, 8, "Even")


def test_bernstein_inapplicable_guard():
    model = pr.iid_model()
    member = fc.ClassMember(name="big", func=lambda x: 50 * np.sign(x),
                            mean=0.0, sup_bound=50.0)
    curve = nm.QuantileCurve.constant(50.0)
    rep = cp.bernstein_check(model, member, curve, mx.iid_profile(),
                             n=96, q=8, k=3, reps=100, seed=11)
    assert not rep.applicable
    assert "inapplicable" in rep.reason


def test_bernstein_iid_indicator_passes():
    model = pr.iid_model()
    member = fc.make_class("indicator", model).members[0]
    curve = nm.QuantileCurve.constant(0.5)
    rep = cp.bernstein_check(model, member, curve, mx.iid_profile(),
                             n=1536, q=8, k=2, reps=2000, seed=12)
    assert rep.applicable and rep.passed
    # Exact-UCL column reported alongside for transparency.
    assert all(p.clopper_ucl >= p.wald_ucl for p in rep.points)


def test_gaussian_couple_moments():
    model = pr.ar1_model(0.5)
    member = fc.make_class("lipschitz4", model).members[1]
    n, q, reps = 1536, 32, 3000
    vals, innov, _ = pr.simulate_many(model, n, reps, seed=13)
    replica = cp.replicate_many(model, vals, innov, q, seed=13)
    rng = np.random.default_rng(14)
    pool = pr._simulate_core(model, q, 20000, rng)[0]
    sums_pool = (member.func(pool).sum(axis=1) - q * member.mean) / math.sqrt(q)
    sums_pool -= sums_pool.mean()
    s2 = float(sums_pool.std(ddof=1))
    sums = pr.centered_sums(member, replica.reshape(reps, n // q, q))
    z = cp.gaussian_couple(sums, s2, sorted_pool=np.sort(sums_pool))
    assert abs(z.mean()) <= 4 * s2 / math.sqrt(reps)
    # Cross-parity block dependence perturbs the variance at order 1/q.
    assert 0.8 * s2**2 <= z.var(ddof=1) <= 1.25 * s2**2


def test_gaussian_couple_analytic_route():
    sums = np.array([[0.5, -1.0, 2.0]])
    # Exactly Gaussian blocks: z = sums / sd, and the total is sd * sum(z) / sqrt(3).
    total = cp.gaussian_couple(sums, sd=2.0)
    assert total.shape == (1,)
    assert np.allclose(total, sums.sum() / math.sqrt(3.0))


def test_strong_approx_monotone_and_bounded():
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz4", model).members
    rep = cp.strong_approx_experiment(model, members, (384, 1536), reps=150, seed=15)
    assert rep.monotone and rep.within_bound
    assert rep.points[0].gap_mean > rep.points[1].gap_mean


def test_strong_approx_trivial_for_constant_member(monkeypatch):
    monkeypatch.setattr(cp, "POOL_SIZE", 2000)
    model = pr.iid_model()
    member = fc.ClassMember(name="const", func=lambda x: np.ones_like(x),
                            mean=1.0, sup_bound=1.0)
    rep = cp.strong_approx_experiment(model, [member], (96,), reps=60, seed=16)
    assert rep.points[0].gap_mean < 0.2


def test_strong_approx_identity_gap_machine_zero_for_iid(monkeypatch):
    # Exactly Gaussian blocks take the analytic transform: the coupled total
    # recombines to the scaled average itself.
    monkeypatch.setattr(cp, "POOL_SIZE", 2000)
    model = pr.iid_model()
    member = fc.make_class("identity", model).members[0]
    rep = cp.strong_approx_experiment(model, [member], (384, 1536), reps=60,
                                      seed=18, gamma_order=4.0)
    assert all(p.gap_mean < 1e-12 for p in rep.points)
    assert rep.monotone


def test_strong_approx_identity_geometric_decay_for_ar1(monkeypatch):
    monkeypatch.setattr(cp, "POOL_SIZE", 2000)
    model = pr.ar1_model(0.5)
    member = fc.make_class("identity", model).members[0]
    rep = cp.strong_approx_experiment(model, [member], (384, 1536, 6144), reps=60,
                                      seed=19, gamma_order=4.0)
    gaps = [p.gap_mean for p in rep.points]
    assert gaps[0] > 100 * gaps[1] > 100 * gaps[2]


def test_strong_approx_moment_term_stays_finite_at_a_large_gamma(monkeypatch):
    # |pool sum|^2000 overflows; the moment is taken as M * mean((|x| / M)^gamma)^(1/gamma)
    # with M = max |x|: at gamma = 4 the plain L^4 moment to rounding, and at most M.
    monkeypatch.setattr(cp, "POOL_SIZE", 2000)
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz4", model).members
    n, q = 384, 16
    pools = cp._reference_pool(model, members, q, pr.seeded_rng(20, 0x900, n))

    def moment_sum(gamma):
        point = cp.strong_approx_experiment(model, members, (n,), reps=20, seed=20,
                                            gamma_order=gamma).points[0]
        assert math.isfinite(point.bound)
        return point.finite_dim_term / (q / n) ** ((gamma - 2.0) / (2.0 * gamma))

    plain = sum(float((np.abs(p) ** 4.0).mean() ** 0.25) for p in pools)
    assert math.isclose(moment_sum(4.0), plain, rel_tol=1e-12)
    tops = float(np.abs(pools).max(axis=1).sum())
    assert 0.99 * tops < moment_sum(2000.0) <= tops * (1.0 + 1e-12)


def test_strong_approx_fails_its_bound_check_on_an_infinite_bound(monkeypatch):
    monkeypatch.setattr(cp, "POOL_SIZE", 2000)
    monkeypatch.setattr(cp, "estimate_tau", lambda *args: mx.MixingEstimate(math.inf, 0.0))
    model = pr.ar1_model(0.5)
    rep = cp.strong_approx_experiment(model, fc.make_class("lipschitz4", model).members,
                                      (384,), reps=20, seed=21)
    assert rep.points[0].bound == math.inf and not rep.within_bound


# -- the row-chunk stream --------------------------------------------------------

STREAM_MODELS = [pr.iid_model(1.3), pr.ar1_model(0.9, sigma=0.7),
                 pr.lazy_renewal_model(1.5), pr.ma_model(3), pr.ma_model(7, sigma=1.2)]


def _chunk_for_rows(model, n, rows):
    """A ``_CHUNK`` that makes the stream's chunks ``rows`` rows long."""
    return rows * (n + model.m)


@pytest.mark.parametrize("model", STREAM_MODELS, ids=lambda m: m.spec())
@pytest.mark.parametrize("rows", [1, 7, 40])   # 7 divides neither reps nor n
def test_coupled_chunks_match_coupled_paths(model, rows, monkeypatch):
    # q = 4 puts MA(7)'s memory past one block, so its replica draws fresh noise.
    n, q, reps = 96, 4, 40
    monkeypatch.setattr(pr, "_CHUNK", _chunk_for_rows(model, n, rows))
    vals, replica = cp.coupled_paths(model, n, q, reps, seed=21, tag=q)
    got_vals, got_replica, los = [], [], []
    with cp._coupled_chunks(model, n, q, reps, 21, q) as chunks:
        for lo, innov, starts, r in chunks:
            assert len(innov) == len(starts) == len(r) == min(rows, reps - lo)
            los.append(lo)
            # The buffers are drawn over, so copy before the next chunk.
            got_vals.append(pr._path_from(model, innov, starts, n).copy())
            got_replica.append(r.copy())
    assert los == list(range(0, reps, rows))
    assert np.array_equal(np.concatenate(got_vals), vals)
    assert np.array_equal(np.concatenate(got_replica), replica)


def _whole_pool(members, blocks):
    """The former reference pool: every block held at once, summed, centered."""
    sums = pr._centered_sums(members, blocks)
    return sums - sums.mean(axis=-1, keepdims=True)


@pytest.mark.parametrize("model", STREAM_MODELS, ids=lambda m: m.spec())
@pytest.mark.parametrize("rows", [1, 7, 40])   # neither 7 nor 40 divides the pool
def test_streamed_pool_matches_whole_pool(model, rows, monkeypatch):
    q = 12
    monkeypatch.setattr(cp, "POOL_SIZE", 100)
    monkeypatch.setattr(pr, "_CHUNK", _chunk_for_rows(model, q, rows))
    members = fc.make_class("lipschitz4", pr.ar1_model(0.5)).members
    expect = _whole_pool(members, pr._simulate_core(model, q, 100, pr.seeded_rng(24))[0])
    got = cp._reference_pool(model, members, q, pr.seeded_rng(24))
    assert got.shape == (len(members), 100) and np.array_equal(got, expect)


def test_strong_approx_holds_no_whole_pool(traced_peak):
    # At n = 6144 (q = 64) a whole AR(1) pool of paths and innovations is
    # 2 x 20000 x 64 floats, 19.5 MiB; the streamed pool and the coupled
    # stream hold one row chunk at a time.
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz4", model).members
    cp.strong_approx_experiment(model, members, (96,), reps=30, seed=5)   # the lazy imports
    peak = traced_peak(cp.strong_approx_experiment, model, members, (6144,), reps=30, seed=5)
    assert peak <= 6 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_bernstein_check_holds_no_whole_replica_draws(traced_peak):
    # A12's AR(1) shape: the replica block starts are 5000 x 192 floats, 7.3 MiB
    # drawn whole; each row chunk draws its own, and the replicas of one chunk
    # are drawn over by the next.
    model = pr.ar1_model(0.5)
    args = (model, fc.make_class("indicator", model).members[0],
            nm.QuantileCurve.constant(0.5), mx.exponential_profile(0.5))
    cp.bernstein_check(*args, n=96, q=8, k=2, reps=10, seed=7)   # the lazy imports
    peak = traced_peak(cp.bernstein_check, *args, n=1536, q=8, k=2, reps=5000, seed=7)
    assert peak <= 5 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_streamed_consumers_do_not_depend_on_chunk_rows(monkeypatch):
    monkeypatch.setattr(cp, "TAU_REPS", (30, 30))   # the tau estimate is not streamed
    monkeypatch.setattr(cp, "POOL_SIZE", 500)
    model = pr.ar1_model(0.5)
    member = fc.make_class("indicator", model).members[0]
    members = fc.make_class("lipschitz4", model).members

    def run():
        tails = cp.bernstein_check(model, member, nm.QuantileCurve.constant(0.5),
                                   mx.exponential_profile(0.5), n=384, q=8, k=2,
                                   reps=50, seed=22)
        approx = cp.strong_approx_experiment(model, members, (96, 384), reps=30,
                                             seed=22)
        return tails, approx

    whole = run()
    # One row; 5 rows at n = 384 and 20 at n = 96; 7 and 28, which split the
    # 50 and 30 reps unevenly.
    for chunk in (1, 5 * 384 + 1, 7 * 384):
        monkeypatch.setattr(pr, "_CHUNK", chunk)
        assert run() == whole


class _Stop(Exception):
    pass


def _raise_mid_stream(model, monkeypatch):
    """Run a stream that raises in its second chunk; returns its threads."""
    monkeypatch.setattr(pr, "_CHUNK", _chunk_for_rows(model, 96, 3))
    before = set(threading.enumerate())
    started = []
    with pytest.raises(_Stop):
        with cp._coupled_chunks(model, 96, 4, 40, 23, 4) as chunks:
            for lo, _, _, _ in chunks:
                started.extend(set(threading.enumerate()) - before)
                if lo > 0:
                    raise _Stop
    for t in started:
        t.join(timeout=10)
        assert not t.is_alive()
    return before, started


@pytest.mark.parametrize("model", [pr.ar1_model(0.5), pr.iid_model()],
                         ids=lambda m: m.spec())
def test_consumer_raise_stops_the_producer(model, monkeypatch):
    count = threading.active_count()
    before, started = _raise_mid_stream(model, monkeypatch)
    assert started   # the producer was running when the consumer raised
    assert threading.active_count() == count
    assert set(threading.enumerate()) == before


def test_producer_raise_reaches_the_caller(monkeypatch):
    fill = pr._fill_innovations
    calls = []

    def failing(model, out, rng):
        calls.append(len(out))
        if len(calls) == 2:
            raise _Stop
        return fill(model, out, rng)

    monkeypatch.setattr(pr, "_fill_innovations", failing)
    monkeypatch.setattr(pr, "_CHUNK", _chunk_for_rows(pr.ar1_model(0.5), 96, 3))
    count = threading.active_count()
    seen = []
    with pytest.raises(_Stop):
        with cp._coupled_chunks(pr.ar1_model(0.5), 96, 4, 40, 24, 4) as chunks:
            for lo, _, _, _ in chunks:
                seen.append(lo)
    assert seen == [0] and threading.active_count() == count


def test_consumer_break_leaves_no_thread(monkeypatch):
    model = pr.ar1_model(0.5)
    monkeypatch.setattr(pr, "_CHUNK", _chunk_for_rows(model, 96, 3))
    before = set(threading.enumerate())
    started = []
    with cp._coupled_chunks(model, 96, 4, 40, 26, 4) as chunks:
        for _ in chunks:
            started.extend(set(threading.enumerate()) - before)
            break
    assert started and not any(t.is_alive() for t in started)
    assert set(threading.enumerate()) == before


def _stream_again(model, members, expect):
    same = pr.sup_samples(model, members, 96, 40, 27).tobytes() == expect
    sys.exit(0 if same else 3)


def test_stream_runs_again_in_a_forked_child(monkeypatch):
    # No pool outlives its stream, so a child forked after one streams too.
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz4", model).members
    monkeypatch.setattr(pr, "_CHUNK", _chunk_for_rows(model, 96, 3))
    expect = pr.sup_samples(model, members, 96, 40, 27).tobytes()
    child = multiprocessing.get_context("fork").Process(
        target=_stream_again, args=(model, members, expect))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_strong_approx_rejects_empty_grid():
    model = pr.ar1_model(0.5)
    with pytest.raises(cp.CouplingError, match="n_grid is empty"):
        cp.strong_approx_experiment(model, fc.make_class("lipschitz4", model).members,
                                    (), reps=30, seed=25)


@pytest.mark.parametrize("sup", [math.nan, math.inf, -math.inf, -0.5])
def test_class_member_refuses_a_bad_sup_bound(sup):
    # Checked once, where the member is made, so no consumer re-checks it.
    message = "sup_bound must be None or finite and >= 0"
    with pytest.raises(ValueError, match=message):
        fc.ClassMember("t", np.tanh, 0.0, sup_bound=sup)
    tanh = fc.make_class("lipschitz4", pr.ar1_model(0.5)).members[1]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(tanh, sup_bound=sup)
    # mc_means rebuilds each member with dataclasses.replace, so it re-checks.
    object.__setattr__(tanh, "sup_bound", sup)
    with pytest.raises(ValueError, match=message):
        fc.mc_means([tanh], pr.ar1_model(0.5), draws=100)


def test_class_member_keeps_a_good_sup_bound():
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz5", model).members
    assert fc.ClassMember("zero", np.zeros_like, 0.0, sup_bound=0.0).sup_bound == 0.0
    again = fc.mc_means(members, model, draws=100)
    assert [m.sup_bound for m in again] == [1.0, 1.0, 0.5, 1.0, None]


def _no_draws(monkeypatch):
    """Make every seeded stream raise, so a test sees whether a call drew."""
    def boom(*args):
        raise AssertionError("drew before refusing")
    for module in (pr, mx, cp, fc):
        monkeypatch.setattr(module, "seeded_rng", boom)


_NO_MEAN = fc.ClassMember(name="nomean", func=np.sin, mean=None, sup_bound=1.0)

_MEAN_READERS = {
    "estimate_tau": lambda: mx.estimate_tau(pr.ar1_model(0.5), [_NO_MEAN], 2, 10, 10, seed=1),
    "centered_sums": lambda: pr.centered_sums(_NO_MEAN, np.zeros((3, 96))),
    "sup_samples": lambda: pr.sup_samples(pr.iid_model(), [_NO_MEAN], 96, 3, seed=1),
    "bernstein_check": lambda: cp.bernstein_check(
        pr.iid_model(), _NO_MEAN, nm.QuantileCurve.constant(1.0), mx.iid_profile(),
        n=384, q=8, k=2, reps=10, seed=1),
    "strong_approx_experiment": lambda: cp.strong_approx_experiment(
        pr.ar1_model(0.5), [_NO_MEAN], (384,), reps=10, seed=1),
}


@pytest.mark.parametrize("call", _MEAN_READERS.values(), ids=_MEAN_READERS.keys())
def test_member_without_mean_refused_before_drawing(call, monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(pr.ModelError,
                       match=r"\['nomean'\] have no stationary mean; .*make_class"):
        call()


def test_off_lattice_grid_point_refused_before_drawing(monkeypatch):
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz4", model).members
    _no_draws(monkeypatch)
    with pytest.raises(grid.GridError, match=r"^n=1000 is not in the lattice over the first 3 "
                                        r"primes; nearest member is 972$"):
        cp.strong_approx_experiment(model, members, (384, 1000), reps=50, seed=1)
    # A negative point is refused by the same rule, before its square root is taken.
    with pytest.raises(grid.GridError, match=r"^n=-384 is not in the lattice over the first 3 "
                                        r"primes; nearest member is 6$"):
        cp.strong_approx_experiment(model, members, (-384, 384), reps=50, seed=1)


_BAD_SIZES = {
    "estimate_tau-q": ("q", lambda members: mx.estimate_tau(
        pr.ar1_model(0.5), members, -3, 10, 10, seed=1)),
    "estimate_tau-outer_reps": ("outer_reps", lambda members: mx.estimate_tau(
        pr.ar1_model(0.5), members, 3, 1, 10, seed=1)),
    "mc_means-draws": ("draws", lambda members: fc.mc_means(
        members, pr.ar1_model(0.5), draws=0)),
    "bernstein_check-reps": ("reps", lambda members: cp.bernstein_check(
        pr.iid_model(), members[0], nm.QuantileCurve.constant(1.0), mx.iid_profile(),
        n=384, q=8, k=2, reps=0, seed=1)),
    "strong_approx_experiment-reps": ("reps", lambda members: cp.strong_approx_experiment(
        pr.ar1_model(0.5), members, (384,), reps=1, seed=1)),
}


@pytest.mark.parametrize("arg, call", _BAD_SIZES.values(), ids=_BAD_SIZES.keys())
def test_monte_carlo_sizes_refused_before_drawing(arg, call, monkeypatch):
    members = fc.make_class("lipschitz4", pr.ar1_model(0.5)).members
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"^{arg} must be >= "):
        call(members)
