"""Rate factors, their closed-form envelopes, phase-transition regimes and
the explicit universal constants entering the assembled bounds."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import first_block_lengths, lattice_members
from .mixing import MixingProfile
from .norms import holder_factors


@dataclass(frozen=True)
class UniversalConstants:
    """Explicit constants of the tail-probability and expectation bounds.

    c0 is the doubly-exponentially convergent series 2 * sum_j (2/e)^(2^(j-1)),
    l0 = (16/3) * c0 + 2 folds in the unit integral of the tail 2 e^(-2t), and
    l = 2 * l0 + 2^(5/2) is the constant multiplying the complexity in the
    final expectation bound.
    """

    c0: float
    l0: float
    l: float


def universal_constants() -> UniversalConstants:
    """Sum the constants to relative tolerance 1e-12 (machine-fast)."""
    ratio = 2.0 / math.e
    total = 0.0
    j = 1
    while True:
        term = ratio ** (2 ** (j - 1))
        total += term
        if term < 1e-12 * max(total, 1.0) or j > 64:
            break
        j += 1
    c0 = 2.0 * total
    l0 = (16.0 / 3.0) * c0 + 2.0  # the tail integral of 2 e^(-2t) is exactly 1
    l = 2.0 * l0 + 2.0 ** 2.5
    return UniversalConstants(c0=c0, l0=l0, l=l)


def rate_factor(n: int, r: float, profile: MixingProfile, basis_size: int = 3) -> float:
    """Sample-size dependent correction multiplying the squared rate.

    Defined as the square of the Hoelder comparison constant at the level
    zero block length; its square root multiplies the complexity in the
    L^r-based bound, and n over this factor is the effective sample size.
    """
    return float(rate_factors([n], r, profile, basis_size)[0])


def rate_factors(ns, r: float, profile: MixingProfile, basis_size: int = 3) -> np.ndarray:
    """rate_factor of every lattice member in ``ns``, bit for bit."""
    return _block_factors(ns, r, profile, basis_size)[1]


def _block_factors(ns, r: float, profile: MixingProfile, basis_size: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Level-zero block lengths of ``ns`` and the rate factors at them."""
    q0s = first_block_lengths(ns, profile, basis_size)
    # Python's float power, as in holder_factor(q0) ** 2: numpy's ** 2 is a
    # plain product, which can round differently.
    factors = [b ** 2 for b in holder_factors(q0s, r, profile).tolist()]
    return q0s, np.asarray(factors, dtype=float)


def regime_classify(m: float, r: float) -> tuple[str, float]:
    """Regime of a polynomial-decay profile and its predicted exponent.

    Returns ``(regime, exponent)`` where regime is ``fast`` (rate factor
    bounded, exponent 0), ``critical`` (logarithmic growth, the exponent is
    the power 1/m applied to log n) or ``slow`` (polynomial growth in n with
    the returned power).
    """
    if not (m > 0):
        raise ValueError(f"m must be > 0, got {m}")
    if not (2.0 < r < math.inf):
        raise ValueError(f"r must be > 2 and finite, got {r}")
    crit = r / (r - 2.0)
    if m > crit:
        return "fast", 0.0
    if m == crit:
        return "critical", 1.0 / m
    return "slow", (r - m * (r - 2.0)) / (r * (m + 1.0))


_ENVELOPE_KINDS = ("m_dependent", "polynomial")   # the profiles with closed-form envelopes


def closed_form_envelopes(q: int, profile: MixingProfile, r: float) -> tuple[float, float]:
    """Algebraic (lower, upper) envelopes for the Hoelder factor at lag q.

    A finite-memory profile takes the finite-memory form; a polynomial-decay
    profile takes the form of its ``regime_classify`` regime (fast, critical
    or slow).  Every form carries the same sqrt(2) prefactor; the exact
    factor always lies inside the returned interval on the regimes exercised
    by the verification suite.  Other profile kinds raise ValueError.
    """
    if not (2.0 < r < math.inf):
        raise ValueError(f"r must be > 2 and finite, got {r}")
    if q < 0:
        raise ValueError("q must be >= 0")
    if profile.kind not in _ENVELOPE_KINDS:
        raise ValueError(f"profile {profile.spec()} has no closed-form envelopes")
    m, a = profile.m, r / (r - 2.0)
    if profile.kind == "m_dependent":
        lo = 2.0 ** (1.0 / r) * math.sqrt(min(1.0 + q, m))
        hi = 2.0 ** (1.0 / r) * math.sqrt(min(1.0 + q, 1.0 + m))
        return lo, hi
    c = r / (m * (r - 2.0))
    regime, _ = regime_classify(m, r)
    root = (r - 2.0) / (2.0 * r)
    if regime == "fast":
        hi_in = 2.0 ** (1.0 + a - m) + 0.5 / (1.0 - c)
        lo_in = (0.5 / (1.0 - c)) * (1.0 - 2.0 ** (a - m)) - 0.5
    elif regime == "critical":
        hi_in = 2.0 + 0.5 * m * math.log(1.0 + q)
        lo_in = 0.5 * m * math.log(2.0 + q) - 0.5
    else:
        hi_in = (2.0 + 0.5 / (c - 1.0)) * (1.0 + q) ** (a - m)
        lo_in = (0.5 / (c - 1.0)) * (2.0 + q) ** (a - m) - 0.5
    lo = math.sqrt(2.0) * max(lo_in, 0.0) ** root
    hi = math.sqrt(2.0) * hi_in ** root
    return lo, hi


def strong_approx_rate(n: int, m: float) -> float:
    """Rate governing the Gaussian-coupling error under polynomial decay.

    n^((1-m)/(2(m+1))) away from m = 1, sqrt(log n) at the boundary;
    vanishing for m > 1, diverging for m < 1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if m <= 0:
        raise ValueError("m must be > 0")
    if m == 1.0:
        return math.sqrt(math.log(n))
    return float(n) ** ((1.0 - m) / (2.0 * (m + 1.0)))


def maximal_bound(complexity: float, n: int, r: float, profile: MixingProfile,
                  basis_size: int = 3) -> float:
    """Assembled expectation bound: sqrt(rate factor) * l * complexity."""
    if complexity < 0:
        raise ValueError("complexity must be >= 0")
    consts = universal_constants()
    return math.sqrt(rate_factor(n, r, profile, basis_size)) * consts.l * complexity


@dataclass(frozen=True)
class RateReport:
    """Per-n rate summary: factor, effective size, regime and envelopes.

    The envelopes bound the factor's square root for the closed-form
    profiles and are None otherwise.
    """

    n: int
    q0: int
    factor: float
    effective_n: float
    regime: str
    lower_env: float | None
    upper_env: float | None


def rate_table(profile: MixingProfile, r: float, n_min: int, n_max: int,
               basis_size: int = 3) -> list[RateReport]:
    """Rate reports over every lattice member in [n_min, n_max]."""
    members = [n for n in lattice_members(basis_size, n_max) if n >= n_min]
    if not members:
        raise ValueError(f"no lattice member in [{n_min}, {n_max}]")
    q0s, factors = _block_factors(members, r, profile, basis_size)
    if profile.kind == "polynomial":
        regime, _ = regime_classify(profile.m, r)
    else:
        regime = {"m_dependent": "m_dependent", "iid": "iid",
                  "exponential": "fast"}.get(profile.kind, "unclassified")
    envelopes = profile.kind in _ENVELOPE_KINDS
    reports = []
    for n, q0, factor in zip(members, q0s.tolist(), factors.tolist()):
        lower, upper = closed_form_envelopes(q0, profile, r) if envelopes else (None, None)
        reports.append(RateReport(n=n, q0=q0, factor=factor, effective_n=n / factor,
                                  regime=regime, lower_env=lower, upper_env=upper))
    return reports


def ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x (centred normal equation); raises
    ValueError unless x holds two distinct values."""
    distinct = np.unique(x)
    if distinct.size < 2:
        raise ValueError(f"a slope needs two distinct x, got {distinct.tolist()}")
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    return ls_slope(np.log(np.asarray(ns, dtype=float)),
                    np.log(np.asarray(values, dtype=float)))
