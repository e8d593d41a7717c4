import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbound import grid as gr
from mixbound import mixing as mx
from mixbound import norms as nm


PROFILES = [mx.iid_profile(), mx.m_dependent_profile(7),
            mx.polynomial_profile(1.5), mx.exponential_profile(0.8)]


@st.composite
def curves(draw):
    k = draw(st.integers(1, 8))
    vals = draw(st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    probs = np.asarray(raw) / np.sum(raw)
    return nm.QuantileCurve.from_discrete(np.asarray(vals), probs)


def brute_force_norm(curve, q, profile, points=10**6):
    """Riemann-midpoint evaluation of the defining integral (dev oracle)."""
    u = (np.arange(points) + 0.5) / points
    half = np.sort(profile.half_levels(q))
    mu = half.size - np.searchsorted(half, u, side="left")
    q_u = np.append(curve.values, 0.0)[np.searchsorted(curve.breaks, u, side="right")]
    return math.sqrt(2.0 * float(np.mean(mu * q_u ** 2)))


def test_active_lag_count_examples():
    assert nm.active_lag_count(0.3, 9, mx.iid_profile()) == 1
    assert nm.active_lag_count(0.2, 3, mx.polynomial_profile(1.0)) == 2
    for prof in PROFILES:
        assert nm.active_lag_count(0.51, 50, prof) == 0


@given(st.floats(0.001, 1.0), st.integers(0, 60))
def test_active_lag_count_monotone(u, q):
    for prof in PROFILES:
        assert nm.active_lag_count(u, q, prof) <= nm.active_lag_count(u, q + 1, prof)
        if u < 0.999:
            assert nm.active_lag_count(u + 0.001, q, prof) <= \
                nm.active_lag_count(u, q, prof)


def test_quantile_curve_from_discrete():
    c = nm.QuantileCurve.from_discrete([0, 1], [0.7, 0.3])
    assert c.breaks.tolist() == [0.3] and c.values.tolist() == [1.0]
    assert math.isclose(c.l2_norm(), math.sqrt(0.3))


def test_two_point_norm_under_independence():
    c = nm.QuantileCurve.from_discrete([0, 1], [0.7, 0.3])
    got = nm.dependence_norm(c, 5, mx.iid_profile())
    assert math.isclose(got, math.sqrt(2 * 0.3), rel_tol=1e-14)
    assert math.isclose(got, brute_force_norm(c, 5, mx.iid_profile()), rel_tol=1e-4)


@pytest.mark.parametrize("level", [math.nan, math.inf, -1.0])
def test_constant_curve_refuses_a_non_finite_or_negative_level(level):
    with pytest.raises(ValueError, match="level must be finite and >= 0"):
        nm.QuantileCurve.constant(level)


def test_constant_curve_norm_factors_out():
    prof = mx.exponential_profile(0.6)
    c = nm.QuantileCurve.constant(2.5)
    base = nm.dependence_norm(nm.QuantileCurve.constant(1.0), 8, prof)
    assert math.isclose(nm.dependence_norm(c, 8, prof), 2.5 * base, rel_tol=1e-14)


@given(curves(), st.integers(0, 40))
@settings(max_examples=50, deadline=None)
def test_norm_monotone_in_q_and_dominates_l2(curve, q):
    for prof in PROFILES:
        a = nm.dependence_norm(curve, q, prof)
        b = nm.dependence_norm(curve, q + 5, prof)
        assert b >= a * (1 - 1e-12)
        assert a >= curve.l2_norm() * (1 - 1e-12)


@given(curves(), st.integers(0, 40), st.floats(2.1, 9.0))
@settings(max_examples=60, deadline=None)
def test_holder_comparison(curve, q, r):
    for prof in PROFILES:
        lhs = nm.dependence_norm(curve, q, prof)
        rhs = nm.holder_factor(q, r, prof) * curve.lr_norm(r)
        assert lhs <= rhs * (1 + 1e-12)


def test_exact_norm_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k = rng.integers(1, 6)
        curve = nm.QuantileCurve.from_discrete(rng.uniform(0, 4, k),
                                               rng.dirichlet(np.ones(k)))
        prof = PROFILES[rng.integers(len(PROFILES))]
        q = int(rng.integers(0, 20))
        exact = nm.dependence_norm(curve, q, prof)
        approx = brute_force_norm(curve, q, prof)
        assert math.isclose(exact, approx, rel_tol=2e-4)


def test_holder_factor_iid_closed_form():
    for r in (2.5, 4.0, 8.0):
        expect = math.sqrt(2.0) * 0.5 ** ((r - 2) / (2 * r))
        assert math.isclose(nm.holder_factor(17, r, mx.iid_profile()), expect,
                            rel_tol=1e-14)


def test_holder_factor_rejects_small_r():
    with pytest.raises(ValueError):
        nm.holder_factor(3, 2.0, mx.iid_profile())


def test_count_sandwich_lower_always_holds():
    # The lower half of the squeeze survives flat profiles everywhere.
    prof = mx.tabulated_profile([1.0, 0.5, 0.5, 0.5, 0.1])
    for u in np.linspace(0.01, 1.0, 97):
        for q in (1, 5, 30):
            mu = nm.active_lag_count(float(u), q, prof)
            assert min(prof.inverse(min(2 * u, 1.0)), q + 1) <= mu


def test_tail_truncation_bound():
    rng = np.random.default_rng(12)
    profiles = PROFILES
    tested = 0
    for _ in range(120):
        k = rng.integers(1, 8)
        curve = nm.QuantileCurve.from_discrete(rng.uniform(0, 5, k),
                                               rng.dirichlet(np.ones(k)))
        prof = profiles[rng.integers(len(profiles))]
        n = int(rng.choice(gr.lattice_members(3, 3000)[3:]))
        sched = gr.block_schedule(n, prof)
        levels = [k2 for k2, q in enumerate(sched.q_seq) if q > 1]
        if not levels:
            continue
        k2 = int(rng.choice(levels))
        qnk = sched.q_seq[k2]
        fq = nm.dependence_norm(curve, qnk, prof)
        cut = 2 * math.sqrt(n) * fq / math.sqrt(2.0 ** (k2 + 2)) / qnk
        keep = curve.values > cut       # E[|f| ; |f| > cut] from the curve's steps
        lhs = float((np.diff(curve.breaks, prepend=0.0)[keep] * curve.values[keep]).sum())
        rhs = math.sqrt(2) * fq * math.sqrt(2.0 ** (k2 + 1) / n)
        assert lhs <= rhs * (1 + 1e-12)
        tested += 1
    assert tested >= 60


# -- the batched kernel against the former scalar code -------------------------


def _reference_from_discrete(values, probs):
    """The former one-row curve build: (breaks, values) of |f| under probs."""
    v = np.abs(np.asarray(values, dtype=float).ravel())
    p = np.asarray(probs, dtype=float).ravel()
    uniq, inv = np.unique(v, return_inverse=True)
    mass = np.zeros_like(uniq)
    np.add.at(mass, inv, p)
    keep = (uniq > 0) & (mass > 0)
    uniq, mass = uniq[keep][::-1], mass[keep][::-1]
    cum = np.minimum(np.cumsum(mass), 1.0)
    strict = np.diff(np.concatenate([[0.0], cum])) > 0
    return tuple(float(c) for c in cum[strict]), tuple(float(x) for x in uniq[strict])


def _reference_norm(breaks, values, q, profile):
    """The former one-curve integral over the merged cuts, as a norm."""
    b = np.asarray(breaks, dtype=float)
    steps = np.concatenate([np.asarray(values, dtype=float), [0.0]])
    half = profile.half_levels(q)
    cuts = np.unique(np.concatenate([[0.0], half, b, [1.0]]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    left, right = cuts[:-1], cuts[1:]
    half_sorted = np.sort(half)
    mu = (half_sorted.size - np.searchsorted(half_sorted, right, side="left")).astype(float)
    qvals = steps[np.searchsorted(b, left, side="right")]
    return math.sqrt(2.0 * float(((right - left) * mu * qvals**2).sum()))


KERNEL_PROFILES = {
    "iid": mx.iid_profile(),
    "poly": mx.polynomial_profile(1.5),
    "expo": mx.exponential_profile(0.8),
    "table-zero": mx.tabulated_profile([1.0, 0.6, 0.6, 0.25, 0.1]),
    "table-hold": mx.tabulated_profile([1.0, 0.6, 0.6, 0.25, 0.1], tail="hold"),
}


def _kernel_cases(rng, points):
    """Random, integer-valued (heavy ties) and rounded rows, with zero rows."""
    rows = rng.normal(0, 1, (5, points))
    yield rows, rng.dirichlet(np.ones(points))
    ties = rng.integers(-3, 4, (6, points)).astype(float)
    ties[2] = 0.0
    yield ties, np.full(points, 1.0 / points)
    rounded = np.round(rng.standard_t(3, (4, points)), 1)
    weights = rng.dirichlet(np.ones(points))
    if points > 2:  # some points carry no weight
        weights[: points // 2] = 0.0
        weights /= weights.sum()
    yield rounded, weights
    yield np.zeros((3, points)), np.full(points, 1.0 / points)


@pytest.mark.parametrize("name", sorted(KERNEL_PROFILES))
def test_dependence_norms_match_scalar_reference(name):
    prof = KERNEL_PROFILES[name]
    rng = np.random.default_rng(11)
    for points in (1, 2, 7, 24, 150):
        for rows, weights in _kernel_cases(rng, points):
            for q in (0, 1, 6, 40):
                got = nm.dependence_norms(rows, weights, q, prof)
                assert got.shape == (rows.shape[0],)
                for row, value in zip(rows, got):
                    breaks, vals = _reference_from_discrete(row, weights)
                    expect = _reference_norm(breaks, vals, q, prof)
                    if not np.any(row != 0):
                        assert value == 0.0
                    assert value == expect
                    # The one-row view: the curve build and the integral.
                    if breaks:
                        curve = nm.QuantileCurve.from_discrete(row, weights)
                        assert curve.breaks.tolist() == list(breaks)
                        assert curve.values.tolist() == list(vals)
                        assert nm.dependence_norm(curve, q, prof) == expect


def test_dependence_norms_large_sample_curve():
    # The shape of the ``norms`` subcommand: an empirical t(5) curve.
    rng = np.random.default_rng(5)
    x = rng.standard_t(5, 10**5)
    prof = mx.polynomial_profile(1.5)
    breaks, vals = _reference_from_discrete(x, np.full(x.size, 1.0 / x.size))
    expect = _reference_norm(breaks, vals, 1000, prof)
    curve = nm.QuantileCurve.from_sample(x)
    assert (curve.breaks.tolist(), curve.values.tolist()) == (list(breaks), list(vals))
    assert nm.dependence_norm(curve, 1000, prof) == expect
    assert nm.dependence_norms(x[None], np.full(x.size, 1.0 / x.size), 1000,
                               prof).tolist() == [expect]


def test_sample_curve_memory_per_point():
    # A curve holds two read-only float arrays, 16 bytes a point; its build and
    # its norm leave no Python floats or spare full-size copies behind.
    n = 10**5
    x = np.random.default_rng(5).standard_t(5, n)
    prof = mx.polynomial_profile(1.5)
    nm.dependence_norm(nm.QuantileCurve.from_sample(x[:100]), 1000, prof)  # warm-up
    tracemalloc.start()
    try:
        curve = nm.QuantileCurve.from_sample(x)
        kept, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        nm.dependence_norm(curve, 1000, prof)
        norm_peak = tracemalloc.get_traced_memory()[1]   # the curve held
    finally:
        tracemalloc.stop()
    assert build_peak <= 64 * n, f"build peaks at {build_peak / n:.1f} B/pt"
    assert norm_peak <= 80 * n, f"norm peaks at {norm_peak / n:.1f} B/pt"
    assert kept <= 24 * n, f"curve keeps {kept / n:.1f} B/pt"
    for arr in (curve.breaks, curve.values):
        assert isinstance(arr, np.ndarray) and arr.dtype == float and not arr.flags.writeable
    again = nm.QuantileCurve(tuple(curve.breaks.tolist()), tuple(curve.values.tolist()))
    assert again.breaks.tolist() == curve.breaks.tolist()
    assert again.values.tolist() == curve.values.tolist()
    assert curve == curve and curve != again   # identity, never an array comparison


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_discrete_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        nm.QuantileCurve.from_discrete([1.0, bad, 2.0], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError, match="finite"):
        nm.QuantileCurve.from_sample([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="finite"):
        nm.dependence_norms([[1.0, 2.0, 3.0], [1.0, bad, 2.0]], [1 / 3, 1 / 3, 1 / 3],
                            4, mx.iid_profile())


def test_dependence_norms_validates_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        nm.dependence_norms([[1.0, 2.0]], [0.5, 0.6], 3, mx.iid_profile())
    with pytest.raises(ValueError, match="equal-length"):
        nm.dependence_norms([[1.0, 2.0]], [1.0], 3, mx.iid_profile())


# -- the array forms of the exact path against the former scalar code ----------


ARRAY_PROFILES = [
    mx.iid_profile(), mx.m_dependent_profile(7), mx.m_dependent_profile(50),
    mx.polynomial_profile(0.5), mx.polynomial_profile(1.0), mx.polynomial_profile(1.5),
    mx.polynomial_profile(2.0), mx.polynomial_profile(3.0), mx.polynomial_profile(0.7),
    mx.exponential_profile(0.5), mx.exponential_profile(0.7), mx.exponential_profile(0.8),
    mx.exponential_profile(0.9), mx.exponential_profile(0.99),
    mx.tabulated_profile([1.0, 0.6, 0.6, 0.25, 0.1], tail="zero"),
    mx.tabulated_profile([1.0, 0.6, 0.6, 0.25, 0.1], tail="hold"),
]


class _BumpedProfile(mx.MixingProfile):
    """A polynomial profile whose theta(3) is one ulp above theta(2), as a
    non-monotone float ``pow`` would make it; the array forms must sort."""

    def theta(self, q):
        out = super().theta(q)
        return np.where(np.asarray(q) == 3, np.nextafter(super().theta(2), 2.0), out)


BUMPED = _BumpedProfile("polynomial", m=0.3)


def test_bumped_profile_is_out_of_order():
    half = BUMPED.half_levels(6)
    assert half[3] > half[2] and not np.array_equal(half[::-1], np.sort(half))


def _reference_count(u, q, profile):
    """The former scalar count: lags whose half-level is >= u."""
    return int(np.count_nonzero(profile.half_levels(q) >= u))


def _reference_holder(q, r, profile):
    """The former per-q Hoelder factor: sorted levels and fresh counts."""
    a = r / (r - 2.0)
    levels = np.sort(profile.half_levels(q))
    cuts = np.concatenate([[0.0], levels])
    counts = np.arange(q + 1, 0, -1, dtype=float)
    widths = np.diff(cuts)
    integral = float((widths * counts**a).sum())
    return math.sqrt(2.0) * integral ** ((r - 2.0) / (2.0 * r))


@pytest.mark.parametrize("prof", ARRAY_PROFILES + [BUMPED], ids=lambda p: p.spec())
def test_active_lag_count_array_matches_scalar_reference(prof):
    for q in (0, 1, 3, 4, 5, 10, 100, 1000):
        half = prof.half_levels(q)
        levels = half[half > 0]
        us = np.concatenate([
            (2.0 * np.arange(1, 401) - 1.0) / 1600.0, [0.5, 0.51, 1.0, 7.0, 1e-300],
            levels, np.nextafter(levels, 0.0), np.nextafter(levels, 1.0)])
        got = nm.active_lag_count(us, q, prof)
        assert got.shape == us.shape
        assert got.tolist() == [_reference_count(u, q, prof) for u in us.tolist()]
        scalar = nm.active_lag_count(float(us[3]), q, prof)
        assert type(scalar) is int and scalar == got[3]
    assert nm.active_lag_count(np.full((2, 3), 0.25), 4, prof).shape == (2, 3)
    for bad in (np.array([0.1, 0.0]), np.array([0.1, math.nan]), math.nan):
        with pytest.raises(ValueError, match="u must be > 0"):
            nm.active_lag_count(bad, 3, prof)


@pytest.mark.parametrize("prof", ARRAY_PROFILES, ids=lambda p: p.spec())
def test_half_levels_reverse_sorted_and_prefix_stable(prof):
    # The array forms read ascending levels as the reversal of one
    # half_levels(max q), and each q's levels as its prefix.
    half = prof.half_levels(10**6)
    assert np.array_equal(half[::-1], np.sort(half))
    for q in (0, 1, 2, 7, 40, 1000, 123457, 10**6):
        assert np.array_equal(half[: q + 1], prof.half_levels(q))


@pytest.mark.parametrize("prof", ARRAY_PROFILES + [BUMPED], ids=lambda p: p.spec())
def test_holder_factors_match_former_per_q_code(prof):
    qs = [0, 1, 2, 3, 4, 5, 9, 64, 1000, 4, 12345, 0, 77777]
    for r in (4.0, 3.0, 2.5, 6.0, 9.5):
        expect = np.array([_reference_holder(q, r, prof) for q in qs])
        got = nm.holder_factors(qs, r, prof)
        assert got.tobytes() == expect.tobytes()
        assert nm.holder_factor(qs[-1], r, prof) == expect[-1]
    assert nm.holder_factors([], 4.0, prof).shape == (0,)


def _per_q_holder_factors(qs, r, profile):
    """The former ``holder_factors``: one terms buffer, refilled for every q."""
    uniq, inverse = np.unique(np.asarray(qs, dtype=np.int64), return_inverse=True)
    a = r / (r - 2.0)
    top = int(uniq[-1])
    asc = 0.5 * profile.theta(np.arange(top, -1, -1))
    ordered = (asc[:-1] <= asc[1:]).all()
    powers = np.arange(top + 1, 0, -1, dtype=float)
    powers **= a
    out, terms = np.empty(uniq.size), np.empty(top + 1)
    for i, q in enumerate(uniq.tolist()):
        levels = asc[top - q:] if ordered else np.sort(asc[top - q:])
        t = terms[: q + 1]
        np.subtract(levels[1:], levels[:-1], out=t[1:])
        t[0] = levels[0]
        t *= powers[top - q:]
        out[i] = math.sqrt(2.0) * float(t.sum()) ** ((r - 2.0) / (2.0 * r))
    return out[inverse]


@pytest.mark.parametrize("prof", ARRAY_PROFILES + [BUMPED], ids=lambda p: p.spec())
def test_holder_factors_match_per_q_loop_at_random_tops(prof):
    # Tops past one slice of the level table (2^16 lags) included.
    rng = np.random.default_rng(41)
    for top in (0, 1, 5, 65535, 65536, 65537, *rng.integers(2, 400000, 3).tolist()):
        qs = [top, *rng.integers(0, top + 1, 6).tolist()]
        r = float(rng.uniform(2.1, 12.0))
        got = nm.holder_factors(qs, r, prof)
        assert got.tobytes() == _per_q_holder_factors(qs, r, prof).tobytes()


def test_holder_factors_memory_on_the_envelope_grid():
    # A4's 40-point grid up to q = 1e6: the power table is 7.6 MiB; no whole
    # level table, no table of terms and no full-size theta temporaries.
    qs = sorted(set(int(x) for x in np.geomspace(1, 10**6, 40)))
    for prof in (mx.m_dependent_profile(7), mx.polynomial_profile(0.5),
                 mx.exponential_profile(0.9)):
        tracemalloc.start()
        try:
            nm.holder_factors(qs, 4.0, prof)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 2**20, f"{prof.spec()}: traced peak {peak / 2**20:.1f} MiB"


def test_holder_factors_at_the_envelope_grid():
    # A4's grid: 40 lags up to 1e6, where each q reads a suffix of one table.
    qs = sorted(set(int(x) for x in np.geomspace(1, 10**6, 40)))
    for prof in (mx.m_dependent_profile(7), mx.polynomial_profile(0.5),
                 mx.polynomial_profile(3.0)):
        expect = np.array([_reference_holder(q, 4.0, prof) for q in qs])
        assert nm.holder_factors(qs, 4.0, prof).tobytes() == expect.tobytes()


def test_holder_factors_reject_bad_arguments():
    with pytest.raises(ValueError, match="r must be > 2"):
        nm.holder_factors([1, 2], 2.0, mx.iid_profile())
    with pytest.raises(ValueError, match="q must be >= 0"):
        nm.holder_factors([3, -1], 4.0, mx.iid_profile())
    with pytest.raises(ValueError, match="q must be >= 0"):
        nm.holder_factor(-1, 4.0, mx.iid_profile())


def test_negative_q_is_rejected_by_the_half_levels():
    prof = mx.polynomial_profile(1.0)
    w = np.full(3, 1.0 / 3)
    curve = nm.QuantileCurve.from_discrete(np.array([1.0, 2.0, 0.5]), w)
    for call in (lambda: prof.half_levels(-1),
                 lambda: nm.dependence_norms(np.ones((2, 3)), w, -1, prof),
                 lambda: nm.dependence_norm(curve, -1, prof),
                 lambda: nm.active_lag_count(0.1, -1, prof)):
        with pytest.raises(mx.ProfileError, match="q must be >= 0"):
            call()


def _imported_modules(tree, package):
    """Every module and ``module.name`` an ``import`` in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, [package if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_norms_imports_nothing_from_processes():
    # norms computes exact step-function sums; simulation stays in processes.
    tree = ast.parse(Path(nm.__file__).read_text(encoding="utf-8"))
    bad = [m for m in _imported_modules(tree, "mixbound")
           if m == "mixbound.processes" or m.startswith("mixbound.processes.")]
    assert bad == []
