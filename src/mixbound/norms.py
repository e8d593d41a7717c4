"""Quantile curves and the dependence-weighted norm machinery.

The central objects are the non-increasing quantile function of |f| and the
integer step weight counting lags whose dependence level still dominates u.
Both are step functions, so every integral here is a finite sum over merged
breakpoints: there is no quadrature error anywhere in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import MixingProfile

_LAG_SLICE = 1 << 16   # lags per slice of the Hoelder factors' level table


@dataclass(frozen=True, eq=False)
class QuantileCurve:
    """Piecewise-constant right-continuous u -> Q(u) = inf{s : P(|f| > s) <= u}.

    ``Q(u) = values[k]`` on ``[breaks[k-1], breaks[k])`` with ``breaks[-1] = 0``
    implied, and ``Q(u) = 0`` for ``u >= breaks[-1]``.  Values are strictly
    decreasing positive reals, breaks are the matching cumulative tail
    probabilities.  Both are read-only float arrays, copied from what the
    caller gives (tuples included): 16 bytes a break.  Curves compare by
    identity.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if b.shape != v.shape:
            raise ValueError("breaks and values must have equal length")
        if b.size:
            if b[0] <= 0 or b[-1] > 1 or np.any(np.diff(b) <= 0):
                raise ValueError("breaks must be strictly increasing within (0, 1]")
            if np.any(v <= 0) or np.any(np.diff(v) >= 0):
                raise ValueError("values must be strictly decreasing and positive")
        steps = np.concatenate([v, [0.0]])  # Q on each break interval, then 0
        b.flags.writeable = steps.flags.writeable = False
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", steps[:-1])
        object.__setattr__(self, "_steps", steps)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_discrete(cls, values, probs) -> "QuantileCurve":
        """Exact curve of |f| under a finite discrete distribution."""
        v = np.abs(np.asarray(values, dtype=float).ravel())
        p = np.asarray(probs, dtype=float).ravel()
        _check_discrete(v, p)
        breaks, steps = _discrete_curves(v[None], p)
        return cls(breaks=breaks[0], values=steps[0, :-1])

    @classmethod
    def from_sample(cls, sample) -> "QuantileCurve":
        """Empirical curve: each observation carries weight 1/n."""
        x = np.asarray(sample, dtype=float).ravel()
        if x.size == 0:
            raise ValueError("sample must be non-empty")
        return cls.from_discrete(x, np.full(x.size, 1.0 / x.size))

    @classmethod
    def constant(cls, level: float) -> "QuantileCurve":
        """Curve of an |f| that is almost surely equal to ``level``."""
        if not 0.0 <= level < math.inf:   # NaN fails it too
            raise ValueError(f"level must be finite and >= 0, got {level}")
        if level == 0:
            return cls(breaks=(), values=())
        return cls(breaks=(1.0,), values=(float(level),))

    # -- exact moments ------------------------------------------------------

    def _segments(self):
        return np.diff(self.breaks, prepend=0.0), self.values

    def lr_norm(self, r: float) -> float:
        """Exact L^r norm of |f|: (sum width * value^r)^(1/r)."""
        if not (0.0 < r < math.inf):
            raise ValueError(f"r must be > 0 and finite, got {r}")
        widths, v = self._segments()
        return float((widths * v**r).sum() ** (1.0 / r))

    def l2_norm(self) -> float:
        return self.lr_norm(2.0)


def active_lag_count(u, q: int, profile: MixingProfile):
    """Number of lags i in 0..q whose halved dependence level still covers u.

    Integer-valued, non-increasing in u and non-decreasing in q; zero as
    soon as u exceeds 1/2 because theta is capped at 1.  Vectorized over u:
    the half-levels are built once, and a scalar u gives an ``int``.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0):
        raise ValueError("u must be > 0 (the u = 0 endpoint is handled by limits)")
    counts = _lag_counts(profile.half_levels(q), u_arr)
    return int(counts) if u_arr.ndim == 0 else counts


def _lag_counts(half: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Number of half-levels >= u, for every entry of u.

    The levels are ascending once reversed, since theta is non-increasing by
    formula or by validation; float ``pow`` is not guaranteed monotone, so
    the order is checked, and the levels are sorted should it ever fail.
    """
    asc = half[::-1]
    if not (asc[:-1] <= asc[1:]).all():
        asc = np.sort(half)
    return asc.size - np.searchsorted(asc, u, side="left")


def _check_discrete(v: np.ndarray, p: np.ndarray) -> None:
    """Validate |values| (one row or a (rows, points) array) and their probs."""
    if v.shape[-1:] != p.shape or v.size == 0:
        raise ValueError("values and probs must be equal-length and non-empty")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    if (p < 0).any() or not math.isclose(p.sum(), 1.0, rel_tol=1e-9):
        raise ValueError("probs must be non-negative and sum to 1")


def _discrete_curves(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1: the quantile curve of every row of ``a`` (= |f|) under ``p``.

    Returns ``(breaks, steps)``: row r's curve has the entries of
    ``breaks[r]`` up to 1 as its breaks (the padding is 2, past every cut)
    and ``steps[r]`` as Q on each break interval followed by zeros.  Tie
    masses are summed by ``np.bincount`` in index order and cumulated along
    the row, so every curve carries the bits of the one-row build.  Each
    full-size temporary is dropped once the next step has what it needs.
    """
    rows, pts = a.shape
    row = np.arange(rows)[:, None]
    order = a.argsort(axis=1)
    srt = a[row, order]
    new = np.ones(a.shape, dtype=bool)
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:])
    group = new.cumsum(axis=1)
    np.subtract(group[:, -1:], group, out=group)  # 0 = largest distinct value
    group += row * pts
    gid = np.empty_like(group)
    gid[row, order] = group
    del order, srt, new, group
    value = np.zeros(a.shape)
    value.put(gid, a)
    weights = np.broadcast_to(p, a.shape).ravel()   # a view for one row
    mass = np.bincount(gid.ravel(), weights, a.size).reshape(a.shape)
    del gid, weights
    # Groups are dropped below for zero mass, which adds exactly 0.0 to the
    # running sum, or for the value 0, which comes last; so the kept groups'
    # cumulative masses are those of a sum over the kept groups alone.
    cum = np.minimum(mass.cumsum(axis=1), 1.0)   # cumsum can overshoot 1 by 1 ulp
    # Masses below float resolution leave the cumulative unchanged; drop them.
    strict = (value > 0) & (mass > 0)
    del mass
    strict[:, 0] &= cum[:, 0] > 0
    strict[:, 1:] &= cum[:, 1:] > cum[:, :-1]
    kept = strict.sum(axis=1)
    fill = np.arange(kept.max()) < kept[:, None]  # row r's first kept[r] columns
    breaks = np.full(fill.shape, 2.0)
    breaks[fill] = cum[strict]
    del cum
    steps = np.zeros((rows, fill.shape[1] + 1))
    steps[:, :-1][fill] = value[strict]
    return breaks, steps


def _merged_cuts(breaks: np.ndarray, half: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's cuts: its breaks merged with 0, the half-levels and 1.

    Returns ``(cuts, below, nterms)``: row r's distinct cuts within [0, 1]
    in increasing order fill ``cuts[r, :nterms[r] + 1]``, and ``below`` holds
    the number of the row's breaks at or below each cut.  Breaks sort before
    equal common cuts, so that count, taken at a cut's first occurrence,
    includes a break equal to the cut.
    """
    rows, width = breaks.shape
    row = np.arange(rows)[:, None]
    cuts = np.empty((rows, width + half.size + 2))
    cuts[:, :width] = breaks
    cuts[:, width:] = np.concatenate(([0.0], half, [1.0]))
    order = cuts.argsort(axis=1, kind="stable")
    cuts = cuts[row, order]
    below = np.cumsum(order < width, axis=1, out=order)
    keep = (cuts >= 0.0) & (cuts <= 1.0)
    keep[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    nterms = keep.sum(axis=1) - 1
    front = (~keep).argsort(axis=1, kind="stable")[:, : nterms.max() + 1]
    cuts = cuts[row, front]
    return cuts, below[row, front], nterms


def _weight_integrals(breaks: np.ndarray, steps: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Stage 2: integral of count(u) * Q(u)^2 over (0, 1] for every curve.

    ``breaks`` and ``steps`` are as :func:`_discrete_curves` returns them.
    Each row is summed over exactly its own intervals, so it carries the
    bits of the one-curve sum.
    """
    cuts, below, nterms = _merged_cuts(breaks, half)
    left, right = cuts[:, :-1], cuts[:, 1:]
    mu = _lag_counts(half, right).astype(float)
    # right-continuous: the value on [left, right)
    qvals = np.take_along_axis(steps, below[:, :-1], axis=1)
    terms = right - left                         # (right - left) * mu * qvals**2,
    terms *= mu                                  # in place: a row can hold a
    terms *= np.square(qvals, out=qvals)         # 1e5-point curve
    out = np.empty(len(terms))
    for n in set(nterms.tolist()):
        sel = nterms == n
        out[sel] = terms[sel, :n].sum(axis=1)
    return out


def dependence_norm(curve: QuantileCurve, q: int, profile: MixingProfile) -> float:
    """The dependence-weighted norm sqrt(2 * integral(count * Q^2)), the
    integral over (0, 1] taken exactly as a step-function sum.

    Reduces to a pure second-moment quantity when the profile vanishes past
    lag zero, and grows with q at the rate the profile's tail dictates.
    """
    integral = _weight_integrals(curve.breaks[None], curve._steps[None],
                                 profile.half_levels(q))[0]
    return math.sqrt(2.0 * float(integral))


def dependence_norms(rows, weights, q: int, profile: MixingProfile) -> np.ndarray:
    """dependence_norm of the discrete curve of |row| under ``weights``, per row.

    Bit for bit the same as ``dependence_norm(QuantileCurve.from_discrete(
    row, weights), q, profile)`` for every row of the (rows, points) array,
    and 0.0 for an all-zero row; the half-levels are computed once.
    """
    a = np.abs(np.asarray(rows, dtype=float))
    p = np.asarray(weights, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("rows must be a (rows, points) array")
    _check_discrete(a, p)
    integrals = _weight_integrals(*_discrete_curves(a, p), profile.half_levels(q))
    return np.sqrt(2.0 * integrals)


def holder_factor(q: int, r: float, profile: MixingProfile) -> float:
    """Exact constant C(q, r) with dependence_norm(f, q) <= C * ||f||_{L^r}.

    Computed as sqrt(2) * (integral of count(u)^(r/(r-2)) du)^((r-2)/(2r));
    the integrand is a step function with at most q + 2 pieces, so the
    integral is a finite sum.
    """
    return float(holder_factors([q], r, profile)[0])


def holder_factors(qs, r: float, profile: MixingProfile) -> np.ndarray:
    """holder_factor at every q of ``qs``, bit for bit.

    The half-levels and the count powers are built once, at the largest q.
    Where the levels are in order, the powers are turned in place into the
    widths times their powers, so that each q's terms are a suffix of that
    table with its own head, the level times the power, in the first slot.
    """
    if not (2.0 < r < math.inf):
        raise ValueError(f"r must be > 2 and finite, got {r}")
    uniq, inverse = np.unique(np.asarray(qs, dtype=np.int64), return_inverse=True)
    if uniq.size and uniq[0] < 0:
        raise ValueError("q must be >= 0")
    a = r / (r - 2.0)
    top = int(uniq[-1]) if uniq.size else 0
    # half_levels(top) on descending lags, so ascending with no reversed copy;
    # its suffixes are the ascending prefixes unless float rounding broke the
    # monotonicity of theta.  Built in slices, so theta's temporaries stay small.
    asc = np.empty(top + 1)
    for lo in range(0, top + 1, _LAG_SLICE):
        asc[lo: lo + _LAG_SLICE] = 0.5 * profile.theta(
            top - np.arange(lo, min(lo + _LAG_SLICE, top + 1)))
    ordered = (asc[:-1] <= asc[1:]).all()
    powers = np.arange(top + 1, 0, -1, dtype=float)
    powers **= a
    heads = asc[top - uniq] * powers[top - uniq]
    # count q + 1 - j on (levels[j - 1], levels[j]], with levels[-1] = 0
    if ordered:
        for lo in range(1, top + 1, _LAG_SLICE):
            powers[lo: lo + _LAG_SLICE] *= np.diff(asc[lo - 1: lo + _LAG_SLICE])
    out = np.empty(uniq.size)
    for i, q in reversed(list(enumerate(uniq.tolist()))):
        if ordered:   # largest q first: no later suffix reads the head's slot
            powers[top - q] = heads[i]
        t = powers[top - q:] if ordered else \
            np.diff(np.sort(asc[top - q:]), prepend=0.0) * powers[top - q:]
        out[i] = math.sqrt(2.0) * float(t.sum()) ** ((r - 2.0) / (2.0 * r))
    return out[inverse]
