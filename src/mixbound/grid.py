"""Integer machinery for admissible sample sizes, divisor sets and block
length schedules.

Admissible sample sizes factor over a fixed basis of consecutive primes
with the exponents of 2 and 3 both at least one, so every member is
divisible by 6 and its divisor set has no gaps larger than a factor of two.
All computation here is exact integer arithmetic.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mixing import MixingProfile


class GridError(ValueError):
    """Invalid lattice argument or a non-member sample size."""


BASIS_SIZE_MAX = 1000      # first_primes is quadratic in the count
SCHEDULE_MAX_DEPTH = 128   # levels block_schedule scans before giving up


@functools.lru_cache(maxsize=16)
def first_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` primes, by trial division, built once per count."""
    primes: list[int] = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return tuple(primes)


def _basis(basis_size: int) -> tuple[int, ...]:
    """The first ``basis_size`` primes; the lattice needs 2 and 3 among them."""
    if not 2 <= basis_size <= BASIS_SIZE_MAX:
        raise GridError(f"basis_size must be in [2, {BASIS_SIZE_MAX}]")
    return first_primes(basis_size)


def _smooth_numbers(basis_size: int, limit: int) -> list[int]:
    """Every product of powers of the first ``basis_size`` primes up to
    ``limit``, 1 included, sorted ascending.

    Depth first: each number is extended only by primes from its own largest
    prime on, up to the first product past ``limit``, so each is made once.
    """
    primes = _basis(basis_size)
    nums, stack = [], [(1, 0)] if limit >= 1 else []
    while stack:
        v, i = stack.pop()
        nums.append(v)
        for j in range(i, len(primes)):
            w = v * primes[j]
            if w > limit:
                break
            stack.append((w, j))
    return sorted(nums)


def lattice_members(basis_size: int = 3, limit: int = 10**6) -> list[int]:
    """All admissible sample sizes up to ``limit``, sorted ascending.

    A member is a product of powers of the first ``basis_size`` primes with
    the exponents of 2 and 3 each >= 1, i.e. 6 times a smooth number.
    ``basis_size`` must be in [2, 1000]; a limit below 6 admits no member and
    is rejected.
    """
    if limit < 6:
        raise GridError("limit < 6 admits no sample size (members are divisible by 6)")
    return [6 * v for v in _smooth_numbers(basis_size, limit // 6)]


def factor_over_basis(n: int, basis_size: int = 3) -> dict[int, int] | None:
    """Exponent map of n over the prime basis, or None if n has other factors."""
    primes = _basis(basis_size)
    if n < 1:
        return None
    exps: dict[int, int] = {}
    rem = n
    for p in primes:
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        exps[p] = e
    return exps if rem == 1 else None


def member_exponents(n: int, basis_size: int = 3) -> dict[int, int]:
    """Exponent map of a lattice member over the first ``basis_size`` primes;
    any other n is a GridError naming the nearest member."""
    exps = factor_over_basis(n, basis_size)
    if exps is None or exps[2] < 1 or exps[3] < 1:
        raise GridError(f"n={n} is not in the lattice over the first {basis_size} "
                        f"primes; nearest member is {nearest_member(n, basis_size)}")
    return exps


@dataclass(frozen=True)
class DivisorChain:
    """Sorted divisor set of an admissible n with its checked gap ratio."""

    divisors: tuple[int, ...]
    max_ratio: float  # largest ratio between consecutive divisors


def divisor_chain(n: int, basis_size: int = 3) -> DivisorChain:
    """Exact divisor set of a lattice member, gap ratio verified.

    Non-members are rejected: the factor-two gap property is only
    guaranteed on the admissible lattice.
    """
    factors = [(p, e) for p, e in member_exponents(n, basis_size).items() if e > 0]
    divisors = [1]
    for p, e in factors:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    divisors.sort()
    arr = np.asarray(divisors, dtype=float)
    max_ratio = float((arr[1:] / arr[:-1]).max()) if len(divisors) > 1 else 1.0
    return DivisorChain(divisors=tuple(divisors), max_ratio=max_ratio)


def nearest_member(n: int, basis_size: int = 3) -> int:
    """Closest lattice member to n (ties resolved downward).  A member 6 * 2^k
    lies in (n, 2n], so none past max(12, 2n) can be closer."""
    arr = np.asarray(lattice_members(basis_size, max(12, 2 * n)))
    idx = int(np.argmin(np.abs(arr - n)))
    return int(arr[idx])


def nearest_divisor(n: int, x: float, basis_size: int = 3) -> int:
    """Divisor of n closest to x (ties resolved downward)."""
    chain = divisor_chain(n, basis_size)
    best = min(chain.divisors, key=lambda d: (abs(d - x), d))
    return int(best)


@dataclass(frozen=True)
class BlockSchedule:
    """Minimal block lengths balancing dependence decay against 2^(k+1)/n.

    ``q_seq[k]`` is the smallest divisor s of n with
    ``0.5 * theta(s) * n <= s * 2^(k+1)``; the sequence is non-increasing
    and is truncated at its first 1 (the tail is constant).
    """

    profile: MixingProfile
    q_seq: tuple[int, ...]

    def q_at(self, k: int) -> int:
        """q at level k, extending the constant-1 tail past truncation."""
        if k < 0:
            raise GridError("level must be >= 0")
        return self.q_seq[k] if k < len(self.q_seq) else 1


def block_schedule(n: int, profile: MixingProfile, basis_size: int = 3) -> BlockSchedule:
    """Full block-length schedule for one lattice member.

    theta is evaluated once over the divisor set; each level then takes the
    first divisor, ascending, that satisfies its inequality, so minimality
    holds by construction.  Monotonicity in the level is verified.
    """
    divisors = np.asarray(divisor_chain(n, basis_size).divisors)
    lhs = 0.5 * profile.theta(divisors) * n
    seq: list[int] = []
    for k in range(SCHEDULE_MAX_DEPTH):
        # s = n always fits since theta <= 1, so argmax finds a divisor
        q = int(divisors[np.argmax(lhs <= divisors * 2.0 ** (k + 1))])
        if seq and q > seq[-1]:
            raise GridError("schedule failed to be non-increasing")  # pragma: no cover
        seq.append(q)
        if q == 1:
            break
    else:
        raise GridError(f"schedule for n={n} did not reach 1 within "
                        f"{SCHEDULE_MAX_DEPTH} levels")
    return BlockSchedule(profile=profile, q_seq=tuple(seq))


def first_block_length(n: int, profile: MixingProfile, basis_size: int = 3) -> int:
    """Level-zero block length without building the whole schedule."""
    return int(first_block_lengths([n], profile, basis_size)[0])


def first_block_lengths(ns, profile: MixingProfile, basis_size: int = 3) -> np.ndarray:
    """first_block_length of every lattice member in ``ns``, bit for bit.

    Every divisor of a member is a smooth number, so theta is evaluated once
    over the smooth numbers up to max(ns); each n takes the first of them
    that divides it and meets the level-zero inequality of block_schedule.
    """
    ns = [int(n) for n in ns]
    for n in ns:
        member_exponents(n, basis_size)
    smooth = np.asarray(_smooth_numbers(basis_size, max(ns, default=1)))
    half, twice = 0.5 * profile.theta(smooth), smooth * 2.0
    out = np.empty(len(ns), dtype=np.int64)
    for i, n in enumerate(ns):
        out[i] = smooth[np.argmax((half * n <= twice) & (n % smooth == 0))]
    return out
