import math
import re

import numpy as np
import pytest

from mixbound import mixing as mx
from mixbound import norms as nm
from mixbound import rates as rt


def test_universal_constants():
    uc = rt.universal_constants()
    # First series term alone is 2 * (2/e); the tail is tiny.
    direct = 2.0 * sum((2.0 / math.e) ** (2 ** (j - 1)) for j in range(1, 30))
    assert math.isclose(uc.c0, direct, rel_tol=1e-12)
    assert math.isclose(uc.l0, (16.0 / 3.0) * uc.c0 + 2.0, rel_tol=1e-15)
    assert math.isclose(uc.l, 2.0 * uc.l0 + 2.0**2.5, rel_tol=1e-15)


def test_rate_factor_iid_constant():
    prof = mx.iid_profile()
    r = 4.0
    expect = 2.0 * 0.5 ** ((r - 2) / r)
    for n in (384, 6144, 41472):
        assert math.isclose(rt.rate_factor(n, r, prof), expect, rel_tol=1e-12)


def test_rate_factor_is_squared_holder_factor():
    prof = mx.polynomial_profile(0.8)
    from mixbound import grid
    n = 1536
    q0 = grid.first_block_length(n, prof)
    assert math.isclose(rt.rate_factor(n, 4.0, prof),
                        nm.holder_factor(q0, 4.0, prof) ** 2, rel_tol=1e-15)


def test_regime_classification():
    assert rt.regime_classify(3, 4) == ("fast", 0.0)
    regime, expo = rt.regime_classify(2, 4)
    assert regime == "critical" and expo == 0.5
    regime, expo = rt.regime_classify(0.5, 4)
    assert regime == "slow" and math.isclose(expo, 0.5)
    with pytest.raises(ValueError):
        rt.regime_classify(0.0, 4)


def test_envelope_case1_closed_form():
    m, r = 7, 4.0
    for q in (2, 7, 100):
        lo, hi = rt.closed_form_envelopes(q, mx.m_dependent_profile(m), r)
        assert math.isclose(lo, 2 ** (1 / r) * math.sqrt(min(1 + q, m)), rel_tol=1e-15)
        assert math.isclose(hi, 2 ** (1 / r) * math.sqrt(min(1 + q, 1 + m)), rel_tol=1e-15)


def test_envelope_case3_upper_form():
    m, r, q = 2.0, 4.0, 50
    _, hi = rt.closed_form_envelopes(q, mx.polynomial_profile(m), r)
    assert math.isclose(hi, math.sqrt(2) * (2 + 0.5 * m * math.log(1 + q)) ** (1 / (2 * m)),
                        rel_tol=1e-15)


def test_envelope_case4_lower_form():
    m, r, q = 0.5, 4.0, 50
    a = r / (r - 2)
    c = r / (m * (r - 2))
    lo, _ = rt.closed_form_envelopes(q, mx.polynomial_profile(m), r)
    expect = math.sqrt(2) * ((0.5 / (c - 1)) * (2 + q) ** (a - m) - 0.5) ** ((r - 2) / (2 * r))
    assert math.isclose(lo, expect, rel_tol=1e-15)


def _former_envelopes(q, m, r, case):
    """The former per-case forms: 1 finite memory, 2-4 polynomial fast,
    critical and slow, each named by its caller."""
    a = r / (r - 2.0)
    if case == 1:
        return (2.0 ** (1.0 / r) * math.sqrt(min(1.0 + q, m)),
                2.0 ** (1.0 / r) * math.sqrt(min(1.0 + q, 1.0 + m)))
    c = r / (m * (r - 2.0))
    if case == 2:
        hi_in = 2.0 ** (1.0 + a - m) + 0.5 / (1.0 - c)
        lo_in = (0.5 / (1.0 - c)) * (1.0 - 2.0 ** (a - m)) - 0.5
    elif case == 3:
        hi_in = 2.0 + 0.5 * m * math.log(1.0 + q)
        lo_in = 0.5 * m * math.log(2.0 + q) - 0.5
    else:
        hi_in = (2.0 + 0.5 / (c - 1.0)) * (1.0 + q) ** (a - m)
        lo_in = (0.5 / (c - 1.0)) * (2.0 + q) ** (a - m) - 0.5
    root = (r - 2.0) / (2.0 * r)
    return math.sqrt(2.0) * max(lo_in, 0.0) ** root, math.sqrt(2.0) * hi_in ** root


ENVELOPE_CASES = [(1, 7.0, mx.m_dependent_profile(7)),
                  (2, 3.0, mx.polynomial_profile(3.0)),
                  (3, 2.0, mx.polynomial_profile(2.0)),
                  (4, 0.5, mx.polynomial_profile(0.5))]


@pytest.mark.parametrize("case, m, prof", ENVELOPE_CASES,
                         ids=[prof.spec() for _, _, prof in ENVELOPE_CASES])
def test_envelopes_read_off_the_profile_match_the_former_cases(case, m, prof):
    qs = sorted(set(int(x) for x in np.geomspace(1, 10**6, 40)))   # A4's grid
    for q in qs:
        assert rt.closed_form_envelopes(q, prof, 4.0) == _former_envelopes(q, m, 4.0, case)


@pytest.mark.parametrize("prof", [mx.iid_profile(), mx.exponential_profile(0.5),
                                  mx.tabulated_profile([1.0, 0.5, 0.25])],
                         ids=lambda p: p.kind)
def test_envelopes_refuse_a_profile_without_closed_form(prof):
    with pytest.raises(ValueError, match=re.escape(prof.spec())):
        rt.closed_form_envelopes(10, prof, 4.0)


def test_envelopes_contain_exact_factor():
    qs = sorted(set(int(x) for x in np.geomspace(1, 10**4, 25)))
    for _, _, prof in ENVELOPE_CASES:
        for q in qs:
            b = nm.holder_factor(q, 4.0, prof)
            lo, hi = rt.closed_form_envelopes(q, prof, 4.0)
            assert lo * (1 - 1e-12) <= b <= hi * (1 + 1e-12)


def test_strong_rate():
    assert math.isclose(rt.strong_approx_rate(round(math.e**4), 1.0), 2.0, rel_tol=1e-3)
    n = 10**4
    assert math.isclose(rt.strong_approx_rate(n, 3.0), n ** (-0.25), rel_tol=1e-12)
    assert math.isclose(rt.strong_approx_rate(n, 1.0 / 3.0), n ** 0.25, rel_tol=1e-12)


def test_maximal_bound_zero_complexity():
    assert rt.maximal_bound(0.0, 384, 4.0, mx.iid_profile()) == 0.0


def test_maximal_bound_proportional_under_independence():
    prof = mx.iid_profile()
    b1 = rt.maximal_bound(1.0, 384, 4.0, prof)
    b2 = rt.maximal_bound(2.0, 6144, 4.0, prof)
    assert math.isclose(b2, 2.0 * b1, rel_tol=1e-12)


def test_rate_report_fields():
    [rep] = rt.rate_table(mx.polynomial_profile(0.5), 4.0, 1536, 1536)
    assert rep.n == 1536
    assert rep.regime == "slow"
    assert rep.lower_env <= math.sqrt(rep.factor) <= rep.upper_env
    assert rep.effective_n < rep.n


def test_effective_sample_size_diverges():
    prof = mx.polynomial_profile(0.5)
    members = [3072, 41472, 373248, 2239488]
    rows = {rep.n: rep for rep in rt.rate_table(prof, 4.0, members[0], members[-1])}
    eff = [rows[n].effective_n for n in members]
    assert all(b > a for a, b in zip(eff, eff[1:]))


def test_maximal_bound_grows_at_regime_rate():
    # Slow decay: the bound scales like the square root of the rate factor.
    prof = mx.polynomial_profile(0.5)
    n1, n2 = 41472, 2239488
    ratio = rt.maximal_bound(1.0, n2, 4.0, prof) / rt.maximal_bound(1.0, n1, 4.0, prof)
    _, expo = rt.regime_classify(0.5, 4.0)
    predicted = (n2 / n1) ** (expo / 2.0)
    assert 0.5 * predicted <= ratio <= 2.0 * predicted


RATE_PROFILES = [mx.iid_profile(), mx.m_dependent_profile(50), mx.polynomial_profile(0.5),
                 mx.polynomial_profile(2.0), mx.polynomial_profile(3.0),
                 mx.exponential_profile(0.7),
                 mx.tabulated_profile([1.0, 0.6, 0.6, 0.25, 0.1], tail="hold")]


@pytest.mark.parametrize("prof", RATE_PROFILES, ids=lambda p: p.spec())
def test_rate_factors_match_former_per_n_code(prof):
    # The former per-n code squared the scalar Hoelder factor at the scalar
    # level-zero block length, with Python's float power.
    from mixbound import grid
    ns = grid.lattice_members(3, 10**7)
    for r in (4.0, 3.0):
        expect = [nm.holder_factor(grid.first_block_length(n, prof), r, prof) ** 2
                  for n in ns]
        got = rt.rate_factors(ns, r, prof)
        assert got.tobytes() == np.array(expect).tobytes()
        assert rt.rate_factor(ns[-1], r, prof) == expect[-1]


@pytest.mark.parametrize("prof", RATE_PROFILES, ids=lambda p: p.spec())
def test_rate_table_rows_are_rate_reports(prof):
    from mixbound import grid
    table = rt.rate_table(prof, 4.0, 1000, 10**6)
    ns = [n for n in rt.lattice_members(3, 10**6) if n >= 1000]
    assert [rep.n for rep in table] == ns
    factors = rt.rate_factors(ns, 4.0, prof)
    q0s = grid.first_block_lengths(ns, prof)
    closed = prof.kind in ("m_dependent", "polynomial")
    for rep, n, q0, factor in zip(table, ns, q0s.tolist(), factors.tolist()):
        assert (rep.q0, rep.factor, rep.effective_n) == (q0, factor, n / factor)
        envelopes = rt.closed_form_envelopes(q0, prof, 4.0) if closed else (None, None)
        assert (rep.lower_env, rep.upper_env) == envelopes


@pytest.mark.parametrize("x", [[], [2.0], [3.0, 3.0, 3.0]])
def test_a_slope_needs_two_distinct_x(x):
    x = np.asarray(x)
    with pytest.raises(ValueError, match="a slope needs two distinct x"):
        rt.ls_slope(x, np.ones_like(x))


def test_rate_factors_reject_non_members():
    from mixbound import grid
    with pytest.raises(grid.GridError, match="n=1000 is not in the lattice"):
        rt.rate_factors([384, 1000], 4.0, mx.iid_profile())
