import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixbound import function_classes as fc
from mixbound import mixing as mx
from mixbound import processes as pr
from mixbound import rates as rt
from mixbound import chaining as ch


def test_model_validation():
    with pytest.raises(pr.ModelError):
        pr.ar1_model(1.0)
    with pytest.raises(pr.ModelError):
        pr.ma_model(0)
    with pytest.raises(pr.ModelError, match="integer memory m >= 1, got 3.0"):
        pr.ma_model(3.0)   # its spec would not parse back
    with pytest.raises(pr.ModelError):
        pr.lazy_renewal_model(0.0)
    # NaN fails every comparison, so it must fail the guard as well.
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(pr.ModelError, match="scale must be finite and > 0"):
            pr.iid_model(bad)
        with pytest.raises(pr.ModelError, match="sigma must be finite and > 0"):
            pr.ar1_model(0.5, sigma=bad)
        with pytest.raises(pr.ModelError, match="sigma must be finite and > 0"):
            pr.ma_model(3, sigma=bad)
        with pytest.raises(pr.ModelError, match="tail_m > 0"):
            pr.lazy_renewal_model(bad)
    for spec in ("iid:scale=-1", "iid:scale=inf", "ar1:rho=0.5,sigma=0",
                 "ma:m=3,sigma=nan", "lazy:m=nan", "lazy:m=inf"):
        with pytest.raises(pr.ModelError):
            pr.parse_model(spec)


def test_parse_model():
    m = pr.parse_model("ar1:rho=0.9")
    assert m.kind == "ar1" and m.rho == 0.9
    assert pr.parse_model("iid").kind == "iid"
    assert pr.parse_model("ma:m=3").m == 3
    assert pr.parse_model("lazy:m=0.5").tail_m == 0.5


SIGMAS = st.floats(0.0, 1e300, exclude_min=True) | st.just(1.0)
ANY_MODEL = st.one_of(
    st.builds(pr.iid_model, SIGMAS),
    st.builds(pr.ar1_model, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              SIGMAS),
    st.builds(pr.ma_model, st.integers(1, 10**6), SIGMAS),
    st.builds(pr.lazy_renewal_model, st.floats(0.0, 1e300, exclude_min=True)),
)


@given(ANY_MODEL)
def test_spec_parses_back_to_the_model(model):
    assert pr.parse_model(model.spec()) == model


@pytest.mark.parametrize("model, spec", [
    # The specs the criteria and the benchmark echo in their reports.
    (pr.iid_model(), "iid"), (pr.ar1_model(0.9), "ar1:rho=0.9"),
    (pr.ar1_model(0.5), "ar1:rho=0.5"), (pr.ma_model(3), "ma:m=3"),
    (pr.lazy_renewal_model(1.5), "lazy:m=1.5"),
    # Every field that is not at its default, at full precision.
    (pr.ma_model(3, sigma=2.0), "ma:m=3,sigma=2"),
    (pr.ar1_model(0.123456789), "ar1:rho=0.123456789"),
    (pr.iid_model(2.5), "iid:scale=2.5"),
])
def test_spec_text(model, spec):
    assert model.spec() == spec


@pytest.mark.parametrize("fields, unused", [
    ({"kind": "iid", "rho": 0.5}, "rho"), ({"kind": "iid", "m": 3}, "m"),
    ({"kind": "ar1", "rho": 0.5, "tail_m": 1.5}, "tail_m"),
    ({"kind": "ma", "m": 3, "rho": 0.5}, "rho"),
    ({"kind": "lazy_renewal", "tail_m": 1.5, "sigma": 2.0}, "sigma"),
])
def test_model_refuses_a_field_its_spec_does_not_name(fields, unused):
    with pytest.raises(pr.ModelError, match=f"{fields['kind']} takes no {unused}$"):
        pr.ProcessModel(**fields)


def test_iid_is_the_autoregression_at_rho_zero():
    iid, ar = pr.iid_model(1.3), pr.ar1_model(0.0, sigma=1.3)
    assert iid.marginal_sd() == ar.marginal_sd() == 1.3
    assert np.array_equal(iid.autocovariances(5), ar.autocovariances(5))
    assert np.array_equal(iid.autocovariances(5), [1.3**2, 0.0, 0.0, 0.0, 0.0])
    x = np.random.default_rng(3).standard_normal(8)
    assert np.array_equal(iid.step(x[::-1], x), x)


def test_simulate_deterministic():
    model = pr.ar1_model(0.7)
    vals, innov, starts = pr.simulate_many(model, 100, 3, seed=42, tag=5)
    again = pr.simulate_many(model, 100, 3, seed=42, tag=5)
    assert np.array_equal(vals, again[0])
    assert np.array_equal(innov, again[1])
    assert np.array_equal(starts, again[2])
    for seed, tag in ((43, 5), (42, 6)):
        other = pr.simulate_many(model, 100, 3, seed=seed, tag=tag)
        assert not np.array_equal(vals, other[0])
        assert not np.array_equal(innov, other[1])


MODELS = {
    "iid": pr.iid_model(1.3),
    "ar1": pr.ar1_model(0.9, sigma=0.7),
    "ma3": pr.ma_model(3),
    "ma7": pr.ma_model(7, sigma=1.2),
    "lazy": pr.lazy_renewal_model(1.5),
}


def _reference_core(model, n, reps, rng):
    """Per-step simulation loops: the reference the shared kernels must match."""
    if model.kind == "iid":
        innov = model.sigma * rng.standard_normal((reps, n))
        return innov.copy(), innov, np.zeros(reps)
    if model.kind == "ma":
        m = model.m
        w = np.asarray(model.weights)
        innov = model.sigma * rng.standard_normal((reps, n + m))
        vals = np.zeros((reps, n))
        for j in range(m + 1):
            vals += w[j] * innov[:, m - j: m - j + n]
        return vals, innov, np.zeros(reps)
    if model.kind == "ar1":
        starts = model.marginal_sd() * rng.standard_normal(reps)
        innov = model.sigma * rng.standard_normal((reps, n))
    else:
        starts = model.stationary_sample(reps, rng)
        innov = rng.random((reps, n))
    vals = np.empty((reps, n))
    state = starts.copy()
    for t in range(n):
        if model.kind == "ar1":
            state = model.rho * state + innov[:, t]
        else:
            state = model.step(state, innov[:, t])
        vals[:, t] = state
    return vals, innov, starts


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_simulate_core_matches_per_step_loops(kind):
    model = MODELS[kind]
    for n in (1, 36, 384):
        for reps in (1, 40):
            got = pr._simulate_core(model, n, reps, pr.seeded_rng(n, reps))
            want = _reference_core(model, n, reps, pr.seeded_rng(n, reps))
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("groups", [None, (3, 7)], ids=["one-window", "small-windows"])
def test_recurse_steps_time_contiguous_innovations_on_a_copy(groups, monkeypatch):
    # One row (1, n) and one step (rows, 1) are time-contiguous already, and an
    # empty time axis steps nothing; the innovations must come back unchanged.
    if groups:   # row groups of 3 states, time windows of 7 // 3 steps
        monkeypatch.setattr(pr, "_LANES", groups[0])
        monkeypatch.setattr(pr, "_TIME_BLOCK", groups[1])
    model = MODELS["lazy"]
    for n, reps in ((384, 1), (1, 40), (0, 40), (384, 40)):
        got = pr._simulate_core(model, n, reps, pr.seeded_rng(n, reps))
        want = _reference_core(model, n, reps, pr.seeded_rng(n, reps))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        vals, innov, starts = got
        assert pr._recurse(model, starts, innov[:, :0]).tobytes() == starts.tobytes()


# -- shared conventions: centered sums, mean +- SE, seeded streams ------------

SUM_MEMBERS = (fc.make_class("lipschitz5", pr.iid_model()).members
               + fc.make_class("halfpair", pr.iid_model()).members
               + fc.make_class("indicator", pr.ar1_model(0.9)).members)


def _former_path_sum(mem, values):
    n = values.size
    return (mem.func(values).sum() - n * mem.mean) / math.sqrt(n)


def _former_rep_sums(mem, values):
    n = values.shape[1]
    return (mem.func(values).sum(axis=1) - n * mem.mean) / math.sqrt(n)


def _former_block_sums(mem, values, q):
    reps, n = values.shape
    nblocks = n // q
    fv = mem.func(values[:, : nblocks * q]).reshape(reps, nblocks, q)
    return (fv.sum(axis=2) - q * mem.mean) / math.sqrt(q)


@pytest.mark.parametrize("kind", ["iid", "ar1", "ma7"])
def test_centered_sums_match_former_inline_forms(kind):
    model = MODELS[kind]
    for n in (1, 96, 384):
        for reps in (1, 40):
            vals, _, _ = pr.simulate_many(model, n, reps, seed=n + reps)
            for mem in SUM_MEMBERS:
                for row in vals[:2]:                                  # (n,)
                    got = pr.centered_sums(mem, row)
                    assert got.tobytes() == _former_path_sum(mem, row).tobytes()
                got = pr.centered_sums(mem, vals)                     # (reps, n)
                assert got.tobytes() == _former_rep_sums(mem, vals).tobytes()
                for q in {1, 7, 12, n}:                               # (reps, n/q, q)
                    nblocks = n // q
                    blocks = vals[:, : nblocks * q].reshape(reps, nblocks, q)
                    want = _former_block_sums(mem, vals, q)
                    assert pr.centered_sums(mem, blocks).tobytes() == want.tobytes()


# -- the row kernel: sliced, shared among cores, bit for bit --------------------

KERNEL_MEMBERS = (fc.make_class("lipschitz5", pr.iid_model()).members
                  + fc.make_class("indicator", pr.iid_model()).members
                  + fc.make_class("identity", pr.iid_model()).members)


def _kernel_input(shape):
    rng = np.random.default_rng(11)
    if shape == "blocks":          # block view of a path matrix
        return rng.standard_normal((5000, 1536))[:, : 191 * 8].reshape(5000, 191, 8)
    if shape == "columns":         # column-sliced view: rows are not contiguous
        return rng.standard_normal((300, 2051))[:, :-3]
    return rng.standard_normal(shape)


SMALL_SHAPES = {"columns": "columns", "1d": (6144,), "one-slice": (12, 96),
                "one-row": (1, 40000), "ragged": (7, 4099)}


@pytest.mark.parametrize("shape, cores", [
    ((1000, 6144), None), ("blocks", None),
    *((shape, cores) for shape in ((1000, 6144), "blocks") for cores in (1, 3)),
    *((shape, cores) for shape in SMALL_SHAPES.values() for cores in (None, 1, 3)),
], ids=["paths", "blocks", *(f"{name}-{c}-cores" for name in ("paths", "blocks")
                               for c in (1, 3)),
        *(f"{name}-{c or 'all'}-cores" for name in SMALL_SHAPES for c in (None, 1, 3))])
def test_member_sums_match_one_call(monkeypatch, shape, cores):
    if cores is not None:
        monkeypatch.setattr(pr.os, "sched_getaffinity", lambda pid: set(range(cores)))
    values = _kernel_input(shape)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, so a lost write would show
    try:
        got = pr._member_sums(KERNEL_MEMBERS, values)   # every member in one pass
    finally:
        sys.setswitchinterval(interval)
    assert got.shape == (len(KERNEL_MEMBERS),) + values.shape[:-1]
    assert got.flags.c_contiguous
    for sums, mem in zip(got, KERNEL_MEMBERS):
        assert np.array_equal(sums, mem.func(values).sum(axis=-1)), mem.name


def test_member_sums_raise_a_worker_exception(monkeypatch):
    monkeypatch.setattr(pr.os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def fails_on_nan(x):
        if np.isnan(x).any():
            raise FloatingPointError("nan in a slice")
        return x
    members = KERNEL_MEMBERS[:1] + (
        fc.ClassMember(name="fails_on_nan", func=fails_on_nan, mean=0.0),)
    for row in (0, 33, 63):   # the first slice, a middle one and the last (16 of 4 rows)
        values = np.zeros((64, 4096))
        values[row, -1] = np.nan
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="nan in a slice"):
            pr._member_sums(members, values)
        assert threading.active_count() == threads   # every worker joined


def test_sign_centered_is_the_former_where_form():
    # The comparison minus a half: the same float64 bits on signed zeros,
    # subnormals, infinities and NaN.
    tiny, big = 5e-324, np.finfo(float).max
    x = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, big, -big, np.inf, -np.inf, np.nan])
    got = fc._MEMBER_DEFS["sign_centered"][0](x)
    assert got.dtype == float
    assert got.tobytes() == np.where(x > 0, 0.5, -0.5).tobytes()


def test_mean_se_matches_former_inline_form():
    rng = np.random.default_rng(3)
    for size in (2, 3, 40, 1001):
        x = rng.standard_normal(size)
        assert pr.mean_se(x) == (float(x.mean()),
                                 float(x.std(ddof=1) / math.sqrt(size)))
        assert all(type(v) is float for v in pr.mean_se(x))
    for few in (np.array([2.5]), np.array([])):   # no standard error: refused
        with pytest.raises(ValueError, match=f"^a standard error needs two samples or "
                           f"more, got {few.size}$"):
            pr.mean_se(few)


@pytest.mark.parametrize("tags", [(), (0x51A7,), (0x51A7, 0xE5), (0xC0FF, 12, 3)])
def test_seeded_rng_is_the_named_stream(tags):
    want = np.random.default_rng(np.random.SeedSequence([7, *tags])).random(16)
    assert pr.seeded_rng(7, *tags).random(16).tobytes() == want.tobytes()
    if tags:  # tags are taken mod 2^32
        wrapped = pr.seeded_rng(7, *tags[:-1], tags[-1] + 2**32).random(16)
        assert wrapped.tobytes() == want.tobytes()


def test_block_variance_matches_former_form():
    def former(model, q):
        gammas = model.autocovariances(q)
        k = np.arange(1, q)
        total = gammas[0]
        if q > 1:
            total += 2.0 * float(((1.0 - k / q) * gammas[1:q]).sum())
        return float(total)

    for kind in ("iid", "ar1", "ma3", "ma7"):
        model = MODELS[kind]
        assert model.is_gaussian_linear
        for q in range(1, 41):
            assert model.block_variance(q) == former(model, q)
    assert not MODELS["lazy"].is_gaussian_linear


def test_ar1_block_variance_closed_form():
    rho, q = 0.6, 9
    model = pr.ar1_model(rho)
    k = np.arange(1, q)
    expect = model.marginal_sd() ** 2 * (q + 2 * ((q - k) * rho**k).sum()) / q
    assert math.isclose(model.block_variance(q), expect, rel_tol=1e-12)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_ma_stationary_sample_matches_the_path_marginal(sigma):
    # MA(m) is a sum of Gaussians, so its marginal is N(0, marginal_sd()^2).
    model = pr.ma_model(3, sigma=sigma)
    v_hat, se = pr.mean_se(model.stationary_sample(10**5, pr.seeded_rng(4)) ** 2)
    assert abs(v_hat - model.marginal_sd() ** 2) <= 4 * se


def test_iid_block_variance_is_one():
    assert math.isclose(pr.iid_model().block_variance(12), 1.0, rel_tol=1e-12)


def test_ar1_block_sums_match_block_variance():
    # The simulated AR(1) block law against the analytic second moment.
    model = pr.ar1_model(0.5)
    member = fc.ClassMember(name="linear", func=lambda x: x, mean=0.0)
    blocks = pr._simulate_core(model, 8, 40000, pr.seeded_rng(9, 0x5167))[0]
    m_hat, se = pr.mean_se(pr.centered_sums(member, blocks) ** 2)
    assert abs(m_hat - model.block_variance(8)) <= 4 * se


def test_iid_moments():
    vals, _, _ = pr.simulate_many(pr.iid_model(), 4, 40000, seed=1)
    assert abs(vals.mean()) < 0.02
    assert abs(vals.var() - 1.0) < 0.02


def test_ar1_stationary_start_and_autocorrelation():
    model = pr.ar1_model(0.9)
    vals, _, _ = pr.simulate_many(model, 600, 300, seed=2)
    # Exact stationary start: same marginal variance in every window.
    head = vals[:, :50].var()
    tail = vals[:, -50:].var()
    target = model.marginal_sd() ** 2
    assert abs(head / target - 1) < 0.1 and abs(tail / target - 1) < 0.1
    lag1 = np.corrcoef(vals[:, :-1].ravel(), vals[:, 1:].ravel())[0, 1]
    assert abs(lag1 - 0.9) < 0.01


def test_ma_memory_cutoff():
    vals, _, _ = pr.simulate_many(pr.ma_model(3), 4000, 40, seed=3)
    lag4 = np.corrcoef(vals[:, :-4].ravel(), vals[:, 4:].ravel())[0, 1]
    assert abs(lag4) < 0.01


def test_lazy_renewal_stationarity():
    model = pr.lazy_renewal_model(1.5)
    vals, _, _ = pr.simulate_many(model, 400, 400, seed=4)
    # Invariant start: occupation of zero stable across window positions.
    head = (vals[:, :50] == 0).mean()
    tail = (vals[:, -50:] == 0).mean()
    from scipy.special import zeta
    target = 1.0 / (1.0 + zeta(2.5, 1))
    assert abs(head - target) < 0.03 and abs(tail - target) < 0.03


def test_empirical_process_constant_function():
    model = pr.iid_model()
    vals, _, _ = pr.simulate_many(model, 384, 4, seed=5)
    member = fc.ClassMember(name="const", func=lambda x: np.ones_like(x),
                            mean=1.0, sup_bound=1.0)
    assert np.all(np.abs(pr.centered_sums(member, vals)) < 1e-9)
    identity = fc.make_class("identity", model).members[0]
    sups = pr.empirical_process_many(vals, [member, identity])
    assert np.allclose(sups, np.abs(pr.centered_sums(identity, vals)), rtol=0, atol=1e-9)


def test_empirical_process_requires_means():
    model = pr.iid_model()
    vals, _, _ = pr.simulate_many(model, 96, 3, seed=6)
    members = [fc.make_class("identity", model).members[0],
               fc.ClassMember(name="nomean", func=np.sin, mean=None)]
    with pytest.raises(pr.ModelError, match=r"\['nomean'\] have no stationary mean"):
        pr.empirical_process_many(vals, members)
    with pytest.raises(pr.ModelError, match=r"\['nomean'\] have no stationary mean"):
        pr.mc_expected_sup(model, members, 96, reps=30, seed=6)


def test_half_pair_doubles_single():
    model = pr.iid_model()
    members = fc.make_class("halfpair", model).members
    vals, _, _ = pr.simulate_many(model, 384, 20, seed=7)
    sups = pr.empirical_process_many(vals, members)
    single = np.abs(pr.centered_sums(members[0], vals))
    assert np.allclose(sups, 2 * single, rtol=1e-12, atol=0)


def test_mc_expected_sup_halfpair_calibration():
    model = pr.iid_model()
    members = fc.make_class("halfpair", model).members
    est, se = pr.mc_expected_sup(model, members, 384, reps=3000, seed=8)
    target = 2 * math.sqrt(2 / math.pi)
    assert abs(est - target) <= 3.5 * se


def test_mc_expected_sup_stable_across_seeds():
    model = pr.ar1_model(0.5)
    members = fc.make_class("lipschitz5", model).members
    a, sa = pr.mc_expected_sup(model, members, 384, reps=400, seed=9)
    b, sb = pr.mc_expected_sup(model, members, 384, reps=400, seed=10)
    assert abs(a - b) <= 1.96 * (sa + sb)


def test_mc_expected_sup_flat_in_n_for_iid():
    model = pr.iid_model()
    members = fc.make_class("lipschitz5", model).members
    ns = [384, 1536, 6144]
    ests = [pr.mc_expected_sup(model, members, n, reps=600, seed=11)[0] for n in ns]
    slope = rt.loglog_slope(ns, ests)
    assert abs(slope) <= 0.05


def _discretized(members, model, points=1501):
    return fc.ProcessClass(members=tuple(members)).tabulate(model, points)


def test_expected_sup_below_assembled_bound():
    # Dependence-calibrated profiles: the measured supremum stays under
    # sqrt(rate factor) * constant * complexity at every grid point.
    r = 4.0
    cases = [
        (pr.ar1_model(0.5), mx.exponential_profile(0.5)),
        (pr.ma_model(3), mx.m_dependent_profile(3 + 1)),
    ]
    for model, profile in cases:
        members = fc.make_class("lipschitz4", model).members
        cls = _discretized(members, model)
        gamma, _ = ch.complexity_exact(cls, ch.lr_family(r))
        for n in (384, 1536, 6144):
            est, se = pr.mc_expected_sup(model, members, n, reps=300, seed=12)
            bound = rt.maximal_bound(gamma, n, r, profile)
            assert est + 3 * se <= bound


def test_profile_dominates_estimated_mixing():
    # Calibration check behind the bound test above: the exponential profile
    # dominates the estimated dependence coefficients of the autoregression.
    # Past lag four the estimator sits on its Monte Carlo noise floor, so the
    # comparison is made where the signal is resolvable.
    model = pr.ar1_model(0.5)
    profile = mx.exponential_profile(0.5)
    members = fc.make_class("lipschitz4", model).members
    for q in (1, 2, 4):
        tau = mx.estimate_tau(model, members, q, 800, 800, seed=14)
        assert tau.value - 3 * tau.std_error <= profile.theta(q)


def test_mc_expected_sup_singleton_is_zero():
    model = pr.iid_model()
    member = fc.make_class("identity", model).members[0]
    est, se = pr.mc_expected_sup(model, [member], 96, reps=50, seed=20)
    assert est == 0.0 and se == 0.0


# -- the row-chunk stream --------------------------------------------------------


@pytest.mark.parametrize("draw", ["standard_normal", "random"])
def test_chunked_out_draws_match_one_draw(draw):
    whole = getattr(np.random.default_rng(31), draw)((40, 97))
    rng = np.random.default_rng(31)
    chunked = np.empty((40, 97))
    for lo in range(0, 40, 7):
        getattr(rng, draw)(out=chunked[lo: lo + 7])
    assert chunked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("rows", [1, 7, 40])
def test_innovation_chunks_match_simulate_core(kind, rows, monkeypatch):
    model = MODELS[kind]
    n, reps = 96, 40
    monkeypatch.setattr(pr, "_CHUNK", rows * (n + model.m))
    vals, innov, starts = pr._simulate_core(model, n, reps, pr.seeded_rng(32))
    got = []
    with pr._innovation_chunks(model, n, reps, pr.seeded_rng(32)) as chunks:
        for lo, chunk, chunk_starts in chunks:
            path = pr._path_from(model, chunk, chunk_starts, n)
            got.append((chunk.copy(), chunk_starts, path.copy()))
    for whole, part in zip((innov, starts, vals), zip(*got)):
        assert np.concatenate(part).tobytes() == whole.tobytes()
    members = fc.make_class("lipschitz4", pr.ar1_model(0.5)).members
    whole = pr.empirical_process_many(pr.simulate_many(model, n, reps, 33, tag=5)[0],
                                      members)
    assert pr.sup_samples(model, members, n, reps, 33, tag=5).tobytes() == whole.tobytes()
