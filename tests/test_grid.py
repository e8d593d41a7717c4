import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbound import grid, mixing


def test_lattice_members_basis2():
    assert grid.lattice_members(2, 40) == [6, 12, 18, 24, 36]


def test_lattice_members_contains_mixed_prime_product():
    assert 30 in grid.lattice_members(3, 30)


def test_lattice_minimal_member():
    assert grid.lattice_members(2, 6) == [6]


def test_lattice_rejects_bad_args():
    with pytest.raises(grid.GridError):
        grid.lattice_members(1, 100)
    with pytest.raises(grid.GridError):
        grid.lattice_members(2, 5)


@pytest.mark.parametrize("basis", [1, 0, grid.BASIS_SIZE_MAX + 1])
def test_basis_below_two_is_rejected_everywhere(basis):
    prof = mixing.iid_profile()
    for call in (lambda: grid.factor_over_basis(1, basis),
                 lambda: grid.factor_over_basis(0, basis),
                 lambda: grid.member_exponents(8, basis),
                 lambda: grid.divisor_chain(8, basis),
                 lambda: grid.block_schedule(8, prof, basis),
                 lambda: grid.first_block_lengths([8], prof, basis),
                 lambda: grid.first_block_lengths([], prof, basis),
                 lambda: grid.lattice_members(basis, 100)):
        with pytest.raises(grid.GridError, match=r"basis_size must be in \[2, 1000\]"):
            call()


@given(a=st.integers(1, 10), b=st.integers(1, 6), c=st.integers(0, 4))
def test_lattice_membership_by_construction(a, b, c):
    n = 2**a * 3**b * 5**c
    assert grid.member_exponents(n, 3) == {2: a, 3: b, 5: c}
    with pytest.raises(grid.GridError, match=f"n={7 * n} is not in the lattice"):
        grid.member_exponents(7 * n, 3)


def test_divisor_chain_values():
    assert grid.divisor_chain(12).divisors == (1, 2, 3, 4, 6, 12)
    assert grid.divisor_chain(6).divisors == (1, 2, 3, 6)
    assert grid.divisor_chain(36).divisors == (1, 2, 3, 4, 6, 9, 12, 18, 36)


def test_divisor_chain_rejects_non_members():
    for n in (7, 10, 35, 2, 9):
        with pytest.raises(grid.GridError):
            grid.divisor_chain(n)


@given(a=st.integers(1, 12), b=st.integers(1, 7), c=st.integers(0, 5))
@settings(max_examples=60)
def test_divisor_gap_property(a, b, c):
    n = 2**a * 3**b * 5**c
    chain = grid.divisor_chain(n)
    assert chain.max_ratio <= 2.0
    assert chain.divisors[0] == 1 and chain.divisors[-1] == n


def test_schedule_iid_is_all_ones():
    prof = mixing.iid_profile()
    for n in (6, 384, 6144):
        assert grid.block_schedule(n, prof).q_seq == (1,)


def test_schedule_poly_example():
    sched = grid.block_schedule(12, mixing.polynomial_profile(1.0))
    assert sched.q_seq[0] == 2


def test_schedule_m_dependent_quarter_rule():
    # With memory at least n/4 the level-zero block is the divisor at n/4.
    for n in (48, 384, 972):
        chain = grid.divisor_chain(n)
        expected = min(d for d in chain.divisors if d >= n / 4)
        q0 = grid.first_block_length(n, mixing.m_dependent_profile(n))
        assert q0 == expected


def test_schedule_m_dependent_general_rule():
    # The ascending scan lands on the divisor at min(memory, n/4).
    rng = np.random.default_rng(5)
    for n in (36, 192, 1536):
        chain = grid.divisor_chain(n)
        for m in rng.integers(1, 2 * n, size=8):
            q0 = grid.first_block_length(n, mixing.m_dependent_profile(int(m)))
            expected = min(d for d in chain.divisors if d >= min(int(m), n / 4))
            assert q0 == expected


@given(st.sampled_from([12, 36, 96, 384, 1152]),
       st.sampled_from([0.3, 0.7, 1.5, 3.0]))
@settings(max_examples=40, deadline=None)
def test_schedule_monotone_and_member(n, m):
    sched = grid.block_schedule(n, mixing.polynomial_profile(m))
    divisors = set(grid.divisor_chain(n).divisors)
    assert all(q in divisors for q in sched.q_seq)
    assert all(a >= b for a, b in zip(sched.q_seq, sched.q_seq[1:]))
    assert sched.q_seq[-1] == 1
    # Minimality: no smaller divisor satisfies the level-k inequality.
    prof = mixing.polynomial_profile(m)
    for k, q in enumerate(sched.q_seq):
        for d in sorted(divisors):
            if d >= q:
                break
            assert 0.5 * prof.theta(d) * n > d * 2.0 ** (k + 1)


def test_nearest_divisor():
    assert grid.nearest_divisor(384, 384**0.5) == 16
    assert grid.nearest_divisor(1536, 1536**0.5) == 32
    assert grid.nearest_divisor(6144, 6144**0.5) == 64


def _scalar_schedule(n, divisors, theta):
    """Reference scan: ascending divisors, scalar theta, one pass per level."""
    seq = []
    for k in range(128):
        target = 2.0 ** (k + 1)
        q = next(s for s in divisors if 0.5 * theta(s) * n <= s * target)
        seq.append(q)
        if q == 1:
            return tuple(seq)
    raise AssertionError("scalar scan did not reach 1")


SCHEDULE_PROFILES = [
    mixing.iid_profile(),
    mixing.m_dependent_profile(3),
    mixing.m_dependent_profile(250),
    mixing.polynomial_profile(0.5),
    mixing.polynomial_profile(2.0),
    mixing.exponential_profile(0.7),
    mixing.exponential_profile(0.99),
    mixing.tabulated_profile([1.0, 0.6, 0.6, 0.25, 0.1], tail="zero"),
    mixing.tabulated_profile([1.0, 0.6, 0.6, 0.25, 0.1], tail="hold"),
]


@pytest.mark.parametrize("prof", SCHEDULE_PROFILES, ids=lambda p: p.spec())
def test_schedule_matches_scalar_scan(prof):
    # One vectorised theta per schedule must pick bit for bit the divisors the
    # scalar scan picks, at every lattice member up to 1e7.
    thetas = {}

    def theta(s):
        if s not in thetas:
            thetas[s] = prof.theta(s)
        return thetas[s]

    for n in grid.lattice_members(3, 10**7):
        divisors = grid.divisor_chain(n).divisors
        expected = _scalar_schedule(n, divisors, theta)
        assert grid.block_schedule(n, prof).q_seq == expected, n
        assert grid.first_block_length(n, prof) == expected[0], n


# -- the batched level-zero scan against the former per-n code ------------------


def _reference_lattice(basis_size, limit):
    """The former recursive build: exponents of 2 and 3 start at one.  It
    stops at the first prime that no longer fits, so it descends one frame
    per prime up to ``limit / 6`` only."""
    primes = grid.first_primes(basis_size)
    members = []

    def extend(idx, value):
        if idx == len(primes) or (idx >= 2 and value * primes[idx] > limit):
            members.append(value)
            return
        p = primes[idx]
        v = value * p if idx < 2 else value
        while v <= limit:
            extend(idx + 1, v)
            v *= p

    extend(0, 1)
    return sorted(members)


def _reference_first_block(n, prof, basis_size):
    """The former per-n scan: theta over n's own divisors, first fit at k = 0."""
    divisors = np.asarray(grid.divisor_chain(n, basis_size).divisors)
    lhs = 0.5 * prof.theta(divisors) * n
    return int(divisors[np.argmax(lhs <= divisors * 2.0 ** 1)])


def _largest_prime_factors(limit):
    """Entry v is the largest prime factor of v (1 for v = 1), by sieve."""
    largest = [1] * (limit + 1)
    for p in range(2, limit + 1):
        if largest[p] == 1:
            largest[p::p] = [p] * len(range(p, limit + 1, p))
    return largest


@pytest.mark.parametrize("basis", [2, 3, 4, 1000])
def test_lattice_and_smooth_numbers_match_former_builds(basis):
    # The reference descends a frame per prime up to limit / 6, so the largest
    # basis stops at a limit within the recursion depth.
    for limit in (6, 7, 36, 1000, 10**6 if basis < 1000 else 6000):
        assert grid.lattice_members(basis, limit) == _reference_lattice(basis, limit)
    # The 1000th prime is 7919, so up to 20000 the largest basis misses the
    # numbers with a prime factor from 7927 on.
    largest, top_prime = _largest_prime_factors(20000), grid.first_primes(basis)[-1]
    brute = [v for v in range(1, 20001) if largest[v] <= top_prime]
    assert grid._smooth_numbers(basis, 20000) == brute
    assert grid._smooth_numbers(basis, 1) == [1]


@pytest.mark.parametrize("prof", SCHEDULE_PROFILES, ids=lambda p: p.spec())
def test_first_block_lengths_match_per_n_reference(prof):
    for basis, limit in ((3, 10**7), (2, 10**6), (4, 10**5)):
        ns = grid.lattice_members(basis, limit)
        got = grid.first_block_lengths(ns, prof, basis)
        assert got.tolist() == [_reference_first_block(n, prof, basis) for n in ns]
    # Order and repeats are kept; a lone n is the scalar form.
    ns = [41472, 6, 41472, 1296]
    assert grid.first_block_lengths(ns, prof).tolist() == \
        [grid.first_block_length(n, prof) for n in ns]
    assert grid.first_block_lengths([], prof).shape == (0,)


@pytest.mark.parametrize("bad", [0, 10, 35, 12 * 7, 2**5, -6])
def test_first_block_lengths_reject_non_members(bad):
    with pytest.raises(grid.GridError, match=f"n={bad} is not in the lattice"):
        grid.first_block_lengths([12, bad, 36], mixing.iid_profile())
    with pytest.raises(grid.GridError):
        grid.first_block_length(bad, mixing.iid_profile())


@pytest.mark.parametrize("basis", [2, 3, 10])
def test_nearest_member_matches_the_former_build_to_4n(basis):
    # The former search built the lattice up to max(12, 4n); up to 2n suffices.
    members = np.asarray(grid.lattice_members(basis, 4 * 5000))
    for n in range(1, 5001):
        former = members[members <= max(12, 4 * n)]
        assert grid.nearest_member(n, basis) == int(former[np.argmin(np.abs(former - n))]), n


@pytest.mark.parametrize("n, basis, nearest", [(13, 3, 12), (97, 3, 96), (0, 2, 6),
                                               (7 * 384, 3, 2700), (77, 4, 72)])
def test_non_member_refusal_names_the_nearest_member(n, basis, nearest):
    assert grid.nearest_member(n, basis) == nearest
    with pytest.raises(grid.GridError, match=rf"^n={n} is not in the lattice over the first "
                                             rf"{basis} primes; nearest member is {nearest}$"):
        grid.member_exponents(n, basis)
