"""Dependence profiles and the nested Monte Carlo tau estimator.

A profile maps an integer lag q to a dependence weight theta(q) in [0, 1].
Profiles are non-increasing with theta(0) = 1 by convention.  Analytic
families cover independence, finite memory, polynomial decay and geometric
decay; a tabulated family handles everything else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .processes import _member_sums, _parse_kv, _require_means, mean_se, seeded_rng


class ProfileError(ValueError):
    """Invalid profile parameters or an undefined profile operation."""


# The fields each kind reads; a profile refuses any other that is off its default.
_FIELDS = {"iid": (), "m_dependent": ("m",), "polynomial": ("m",),
           "exponential": ("l",), "tabulated": ("table", "tail")}


@dataclass(frozen=True)
class MixingProfile:
    """Lag -> dependence weight map theta, non-increasing on the integers.

    kind
        One of ``iid``, ``m_dependent``, ``polynomial``, ``exponential``,
        ``tabulated``.
    m
        Memory (``m_dependent``, positive integer) or decay power
        (``polynomial``, positive real).
    l
        Geometric ratio in (0, 1) for ``exponential``.
    table
        Values theta(0), theta(1), ... for ``tabulated``; must start at 1
        and be non-increasing.
    tail
        Tabulated-only rule past the table: ``zero`` or ``hold``.
    """

    kind: str
    m: float | None = None
    l: float | None = None
    table: tuple[float, ...] | None = None
    tail: str = "zero"

    def __post_init__(self) -> None:
        if self.kind not in _FIELDS:
            raise ProfileError(f"unknown profile kind {self.kind!r}")
        for f in fields(self)[1:]:
            if f.name not in _FIELDS[self.kind] and getattr(self, f.name) != f.default:
                raise ProfileError(f"{self.kind} takes no {f.name}")
        if self.kind == "m_dependent":
            if self.m is None or self.m < 1 or int(self.m) != self.m:
                raise ProfileError("m_dependent needs a positive integer m")
        if self.kind == "polynomial":
            if self.m is None or not (self.m > 0):
                raise ProfileError("polynomial needs m > 0")
        if self.kind == "exponential":
            if self.l is None or not (0.0 < self.l < 1.0):
                raise ProfileError("exponential needs l in (0, 1)")
        if self.kind == "tabulated":
            if not self.table:
                raise ProfileError("tabulated needs a non-empty table")
            arr = np.asarray(self.table, dtype=float)
            if not np.isfinite(arr).all():
                raise ProfileError("table values must be finite")
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ProfileError("table values must lie in [0, 1]")
            if arr[0] != 1.0:
                raise ProfileError("table must start at theta(0) = 1")
            if np.any(np.diff(arr) > 0):
                raise ProfileError("table must be non-increasing")
            if self.tail not in ("zero", "hold"):
                raise ProfileError("tail must be 'zero' or 'hold'")

    # -- evaluation ------------------------------------------------------

    def theta(self, q):
        """theta(q) for a scalar or array of non-negative integer lags."""
        q_arr = np.asarray(q)
        if np.any(q_arr < 0):
            raise ProfileError("lags must be >= 0")
        if self.kind == "iid":
            out = np.where(q_arr == 0, 1.0, 0.0)
        elif self.kind == "m_dependent":
            out = np.where(q_arr < self.m, 1.0, 0.0)
        elif self.kind == "polynomial":
            out = (1.0 + q_arr) ** (-self.m)
        elif self.kind == "exponential":
            with np.errstate(under="ignore"):
                out = np.asarray(self.l, dtype=float) ** q_arr
        else:
            tab = np.asarray(self.table, dtype=float)
            fill = 0.0 if self.tail == "zero" else tab[-1]
            idx = np.minimum(q_arr, len(tab) - 1)
            out = np.where(q_arr < len(tab), tab[idx], fill)
        if np.isscalar(q) or q_arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def half_levels(self, q: int) -> np.ndarray:
        """Array of 0.5 * theta(i) for i = 0..q (the mu breakpoints)."""
        if q < 0:
            raise ProfileError("q must be >= 0")
        return 0.5 * self.theta(np.arange(q + 1))

    def inverse(self, u: float) -> int:
        """Generalized inverse min{s >= 0 : theta(s) <= u}.

        Returns 0 whenever u >= 1.  For tabulated profiles with a ``hold``
        tail that never drops below u the inverse does not exist.
        """
        if not u >= 0:   # NaN fails every comparison
            raise ProfileError(f"u must be >= 0, got {u}")
        if u >= 1.0:
            return 0
        if self.kind == "iid":
            return 1
        if self.kind == "m_dependent":
            return int(self.m)
        if u == 0.0 and self.kind in ("polynomial", "exponential"):
            raise ProfileError(f"inverse undefined: {self.kind} theta never reaches 0")
        if self.kind == "polynomial":
            guess = u ** (-1.0 / self.m) - 1.0
        elif self.kind == "exponential":
            guess = math.log(u) / math.log(self.l)
        else:
            tab = np.asarray(self.table, dtype=float)
            hits = np.nonzero(tab <= u)[0]
            if hits.size:
                return int(hits[0])
            if self.tail == "zero":
                return len(tab)
            raise ProfileError("inverse undefined: held tail never drops below u")
        # The closed form is exact up to float rounding; bisect the bracket
        # around it so extreme magnitudes cannot degrade to a linear scan.
        hi = max(int(guess), 0) + 1
        while self.theta(hi) > u:
            hi *= 2
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if self.theta(mid) <= u:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def spec(self) -> str:
        """CLI-grammar spec; a table's (``table:<N values>,...``) does not parse back."""
        if self.kind == "iid":
            return "iid"
        if self.kind == "m_dependent":
            return f"mdep:m={int(self.m)}"
        if self.kind == "polynomial":
            return f"poly:m={self.m:g}"
        if self.kind == "exponential":
            return f"expo:l={self.l:g}"
        return f"table:<{len(self.table)} values>,tail={self.tail}"


def iid_profile() -> MixingProfile:
    return MixingProfile("iid")


def m_dependent_profile(m: int) -> MixingProfile:
    return MixingProfile("m_dependent", m=m)


def polynomial_profile(m: float) -> MixingProfile:
    return MixingProfile("polynomial", m=m)


def exponential_profile(l: float) -> MixingProfile:
    return MixingProfile("exponential", l=l)


def tabulated_profile(values: Sequence[float], tail: str = "zero") -> MixingProfile:
    return MixingProfile("tabulated", table=tuple(float(v) for v in values), tail=tail)


def parse_profile(text: str) -> MixingProfile:
    """Parse the CLI grammar: iid | mdep:m=<int> | poly:m=<float> |
    expo:l=<float> | table:<csv path>[,tail=zero|hold]."""
    text = text.strip()
    if text == "iid":
        return iid_profile()
    head, _, rest = text.partition(":")
    if head == "mdep":
        return m_dependent_profile(_parse_kv(text, rest, {"m": int})["m"])
    if head == "poly":
        return polynomial_profile(_parse_kv(text, rest, {"m": float})["m"])
    if head == "expo":
        return exponential_profile(_parse_kv(text, rest, {"l": float})["l"])
    if head == "table":
        path, _, fields = rest.partition(",")
        tail = _parse_kv(text, fields, optional={"tail": str}).get("tail", "zero")
        return tabulated_profile(_read_values(path, "table"), tail=tail)
    raise ProfileError(f"cannot parse profile spec {text!r}")


def _read_values(path: str, what: str) -> np.ndarray:
    """The finite numbers of a UTF-8 CSV file holding one row or one column of
    them; a file that is not is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:   # up to the first value, before numpy warns
            if not any(line.partition("#")[0].strip() for line in fh):
                raise ValueError("holds no values")
        values = np.loadtxt(path, delimiter=",", ndmin=1, encoding="utf-8")
        if values.ndim != 1:
            raise ValueError(f"need one row or one column of values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
    except ValueError as exc:   # decode and number-conversion errors are ValueErrors
        raise ValueError(f"{what} file {path}: {exc}") from None
    return values


# -- the nested tau estimator ---------------------------------------------


@dataclass(frozen=True)
class MixingEstimate:
    """One Monte Carlo mixing-coefficient estimate at a single lag."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        if self.value < 0 or self.std_error < 0:
            raise ValueError("estimate and standard error must be >= 0")


def estimate_tau(model, members, q: int, outer_reps: int, inner_reps: int,
                 seed: int) -> MixingEstimate:
    """Nested Monte Carlo estimate of the conditional-vs-marginal gap.

    Estimates ``E[ sup_f | E[f(X_q) | X_0] - E f | ]`` for a finite family of
    test functions over a Markov model: the outer loop draws starting states
    from the stationary law, the inner loop propagates q steps to estimate
    each conditional mean.  The estimate is on the members' own scale: the
    class-scale tau of the strong approximation.  Dividing the members by
    their sup envelope and multiplying the estimate back gives the same bits
    when the envelope is a power of two, and may move the last bit otherwise.
    """
    if not model.is_markov:
        raise ValueError(f"model kind {model.kind!r} is not Markov; tau estimation unsupported")
    if inner_reps < 2:
        raise ValueError("inner_reps must be >= 2 for variance control")
    if outer_reps < 2:
        raise ValueError(f"outer_reps must be >= 2 for a standard error, got {outer_reps}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    members = list(members)
    _require_means(members)
    rng = seeded_rng(seed, 0x7A11)
    starts = model.stationary_sample(outer_reps, rng)            # (outer,)
    states = np.repeat(starts, inner_reps)                        # (outer*inner,)
    for _ in range(q):
        innov = model.draw_innovations(states.size, rng)
        states = model.step(states, innov)
    sums = _member_sums(members, states.reshape(outer_reps, inner_reps))
    means = np.array([mem.mean for mem in members])[:, None]
    value, se = mean_se(np.abs(sums / inner_reps - means).max(axis=0))
    return MixingEstimate(value=value, std_error=se)
