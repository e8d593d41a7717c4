"""Stationary process generators with known dependence behavior, plus the
centered and scaled sample-average functional over finite function classes.

Every model starts exactly in its stationary law (Gaussian linear models by
construction, the renewal chain from its explicit invariant distribution),
so no burn-in is ever discarded.  Simulation is vectorized across
replications; a path is reproducible bit for bit from
(model, n, reps, seed, tag).
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import zeta as _zeta


class ModelError(ValueError):
    pass


def seeded_rng(seed: int, *tags: int) -> np.random.Generator:
    """The generator of the stream named by (seed, *tags); tags are taken mod 2^32."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed)] + [int(t) & 0xFFFFFFFF for t in tags]))


def mean_se(x) -> tuple[float, float]:
    """Sample mean and its standard error s / sqrt(size); 0.0 for one sample."""
    x = np.asarray(x)
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


_SLICE = 1 << 14        # input elements per slice, so that temporaries stay in cache
_LANES = 1 << 12        # states ``_recurse`` steps together, so one step stays in cache
_TIME_BLOCK = 1 << 17   # innovations per time-major block of ``_recurse``


def _by_rows(fn, values: np.ndarray) -> np.ndarray:
    """``fn(values)``, bit for bit, for a row-local ``fn`` (row i of its result
    depends on row i of its input only), run over cache-sized slices of the
    leading axis.  The caller and a thread per further core it may use each
    take the next slice until none is left, so a core held up takes fewer.

    Threads are started per call and joined before it returns (a pool made
    before a fork hangs the child); a worker's exception is raised here.
    """
    rows = values.shape[0] if values.ndim > 1 else 1
    step = max(1, _SLICE * rows // max(values.size, 1))
    if step >= rows:   # 1-D, or no bigger than one slice
        return fn(values)
    first = fn(values[:step])
    out = np.empty((rows,) + first.shape[1:], first.dtype)
    out[:step] = first
    starts = iter(range(step, rows, step))   # next() on it is one step under the GIL
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for a in starts:
                out[a: a + step] = fn(values[a: a + step])
        except BaseException as exc:   # raised once every thread has stopped
            errors.append(exc)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    threads = [threading.Thread(target=work)
               for _ in range(min(cores, -(-rows // step) - 1) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out


def _member_sums(members, values: np.ndarray) -> np.ndarray:
    """Raw sums of each ``member.func`` over the last axis of ``values``, stacked
    on a leading member axis: all members run on a slice while it is in cache."""
    def sums(v: np.ndarray) -> np.ndarray:
        return np.stack([m.func(v).sum(axis=-1) for m in members], axis=-1)
    return np.ascontiguousarray(np.moveaxis(_by_rows(sums, values), -1, 0))


def _require_means(members) -> None:
    """Refuse members without a stationary mean: they cannot be centered.
    Callers that draw call this first, so nothing is drawn for them."""
    missing = [m.name for m in members if m.mean is None]
    if missing:
        raise ModelError(
            f"members {missing} have no stationary mean; build the class with "
            f"means attached (see function_classes.make_class and mc_means)")


def _centered_sums(members, values: np.ndarray) -> np.ndarray:
    """``centered_sums`` of each member, stacked on a leading member axis."""
    _require_means(members)
    length = values.shape[-1]
    shift = np.array([length * m.mean for m in members])
    shift = shift.reshape(shift.shape + (1,) * (values.ndim - 1))
    return (_member_sums(members, values) - shift) / math.sqrt(length)


def centered_sums(member, values: np.ndarray) -> np.ndarray:
    """Centered, sqrt(length)-scaled sums of ``member`` over the last axis:
    n^{-1/2} sum (f(X_t) - E f) for each length-n row of ``values``."""
    return _centered_sums((member,), values)[0]


_FIELDS = {"iid": ("sigma",), "ar1": ("rho", "sigma"), "ma": ("m", "sigma"),
           "lazy_renewal": ("tail_m",)}   # the fields each kind's spec names


@dataclass(frozen=True)
class ProcessModel:
    """One of four stationary model kinds; a kind sets only the fields its spec names.

    ar1
        X_{t+1} = rho X_t + eps, Gaussian innovations with sd ``sigma``;
        a Lipschitz contraction with geometric dependence decay.
    iid
        The autoregression at rho = 0: independent Gaussians with sd ``sigma``.
    ma
        (m+1)-tap moving average, weights 1/sqrt(m + 1), of Gaussian
        innovations with sd ``sigma``: exactly m-dependent (independent beyond lag m).
    lazy_renewal
        Countdown chain on the non-negative integers: decrement when
        positive, redraw from a heavy tail with P(V >= k) = k^-(tail_m + 1)
        at zero.  Polynomially mixing regeneration structure; its actual
        coefficients are estimated, never assumed.
    """

    kind: str
    rho: float = 0.0
    sigma: float = 1.0
    m: int = 0
    tail_m: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FIELDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.kind == "ar1" and not (-1.0 < self.rho < 1.0):
            raise ModelError("ar1 needs |rho| < 1")
        if self.kind == "ma" and not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ModelError(f"ma needs an integer memory m >= 1, got {self.m!r}")
        if self.kind == "lazy_renewal" and not (0.0 < self.tail_m < math.inf):
            raise ModelError(f"lazy_renewal needs a finite tail_m > 0, got {self.tail_m}")
        if not (0.0 < self.sigma < math.inf):
            name = "scale" if self.kind == "iid" else "sigma"
            raise ModelError(f"{name} must be finite and > 0, got {self.sigma}")
        for f in fields(self)[1:]:
            if f.name not in _FIELDS[self.kind] and getattr(self, f.name) != f.default:
                raise ModelError(f"{self.kind} takes no {f.name}")

    # -- structural facts --------------------------------------------------

    @property
    def is_markov(self) -> bool:
        return self.kind in ("iid", "ar1", "lazy_renewal")

    @property
    def is_gaussian_linear(self) -> bool:
        """Linear in Gaussian noise: linear functionals have Gaussian block sums."""
        return self.kind in ("iid", "ar1", "ma")

    @property
    def weights(self) -> np.ndarray:
        """The moving average's m + 1 equal weights 1/sqrt(m + 1)."""
        return np.full(self.m + 1, 1.0 / math.sqrt(self.m + 1))

    def marginal_sd(self) -> float:
        if self.kind in ("iid", "ar1"):
            return self.sigma / math.sqrt(1.0 - self.rho**2)
        if self.kind == "ma":
            w = self.weights
            return self.sigma * math.sqrt(float((w * w).sum()))
        raise ModelError("marginal sd is not analytic for the renewal chain")

    def autocovariances(self, q: int) -> np.ndarray:
        """gamma_0 .. gamma_{q-1} for the Gaussian linear kinds."""
        if self.kind in ("iid", "ar1"):
            var = self.sigma**2 / (1.0 - self.rho**2)
            return var * self.rho ** np.arange(q, dtype=float)
        if self.kind == "ma":
            w = self.weights
            g = np.zeros(q)
            for lag in range(min(q, self.m + 1)):
                g[lag] = self.sigma**2 * float((w[: len(w) - lag] * w[lag:]).sum())
            return g
        raise ModelError("autocovariances are not analytic for the renewal chain")

    def block_variance(self, q: int) -> float:
        """Exact variance of the sqrt(q)-normalized block sum of the identity."""
        gammas = self.autocovariances(q)  # gamma_0 .. gamma_{q-1}
        k = np.arange(1, q)
        return float(gammas[0] + 2.0 * float(((1.0 - k / q) * gammas[1:q]).sum()))

    def spec(self) -> str:
        """The CLI spec of this model, which ``parse_model`` reads back to it:
        every field the kind uses, unless it is at its default."""
        sigma = "" if self.sigma == 1.0 else f",sigma={_shortest(self.sigma)}"
        if self.kind == "iid":
            return f"iid:scale={_shortest(self.sigma)}" if sigma else "iid"
        if self.kind == "ar1":
            return f"ar1:rho={_shortest(self.rho)}{sigma}"
        if self.kind == "ma":
            return f"ma:m={self.m:d}{sigma}"
        return f"lazy:m={_shortest(self.tail_m)}"

    # -- sampling primitives ----------------------------------------------

    def stationary_sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind in ("iid", "ar1"):
            return self.marginal_sd() * rng.standard_normal(size)
        if self.kind == "lazy_renewal":
            # Invariant law: mass 1/(1 + zeta(s)) at 0, else Zipf(s), s = tail_m + 1.
            s = self.tail_m + 1.0
            z = float(_zeta(s, 1))
            return np.where(rng.random(size) < 1.0 / (1.0 + z),
                            0.0, rng.zipf(s, size).astype(float))
        raise ModelError("the moving average is not sampled pointwise; simulate a path")

    def draw_innovations(self, size: int | tuple[int, ...],
                         rng: np.random.Generator) -> np.ndarray:
        return _fill_innovations(self, np.empty(size), rng)

    def step(self, state: np.ndarray, innovation: np.ndarray) -> np.ndarray:
        """One transition of the innovation recursion (Markov kinds only)."""
        if self.kind in ("iid", "ar1"):
            return self.rho * state + innovation
        if self.kind == "lazy_renewal":
            u = np.clip(1.0 - innovation, 1e-300, 1.0)  # map [0,1) to (0,1]
            fresh = np.floor(u ** (-1.0 / (self.tail_m + 1.0)))
            return np.where(state >= 1.0, state - 1.0, fresh)
        raise ModelError(f"model kind {self.kind!r} exposes no one-step recursion")

    def sample_blocks(self, q: int, reps: int, rng: np.random.Generator) -> np.ndarray:
        """(reps, q) matrix of independent stationary length-q stretches."""
        return _simulate_core(self, q, reps, rng)[0]


def _shortest(x: float) -> str:
    """The shortest %g text that parses back to ``x``."""
    return next(t for t in (f"{x:.{p}g}" for p in range(1, 18)) if float(t) == x)


def iid_model(scale: float = 1.0) -> ProcessModel:
    return ProcessModel("iid", sigma=scale)


def ar1_model(rho: float, sigma: float = 1.0) -> ProcessModel:
    return ProcessModel("ar1", rho=rho, sigma=sigma)


def ma_model(m: int, sigma: float = 1.0) -> ProcessModel:
    """MA(m) with equal weights 1/sqrt(m + 1)."""
    return ProcessModel("ma", m=m, sigma=sigma)


def lazy_renewal_model(tail_m: float) -> ProcessModel:
    return ProcessModel("lazy_renewal", tail_m=tail_m)


def parse_model(text: str) -> ProcessModel:
    """Parse the CLI grammar: iid[:scale=<float>] | ar1:rho=<float>[,sigma=<float>]
    | ma:m=<int>[,sigma=<float>] | lazy:m=<float>."""
    from .mixing import _parse_kv  # mixing imports this module

    text = text.strip()
    head, _, rest = text.partition(":")
    if head == "iid":
        return iid_model(_parse_kv(text, rest, optional={"scale": float}).get("scale", 1.0))
    if head == "ar1":
        kv = _parse_kv(text, rest, {"rho": float}, {"sigma": float})
        return ar1_model(rho=kv["rho"], sigma=kv.get("sigma", 1.0))
    if head == "ma":
        kv = _parse_kv(text, rest, {"m": int}, {"sigma": float})
        return ma_model(m=kv["m"], sigma=kv.get("sigma", 1.0))
    if head == "lazy":
        return lazy_renewal_model(tail_m=_parse_kv(text, rest, {"m": float})["m"])
    raise ModelError(f"cannot parse model spec {text!r}")


# -- simulation --------------------------------------------------------------


def _recurse(model: ProcessModel, state: np.ndarray, innov: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Step ``model.step`` from ``state`` along the last axis of ``innov``.

    ``state`` has the shape of ``innov`` without its last axis; each step's
    state is written to ``out`` when given.  Returns the final state.  Groups of
    about ``_LANES`` states step through windows of at most ``_TIME_BLOCK``
    innovations, copied time-major into one buffer made here that then holds
    the states: each step reads one contiguous vector; ``innov`` is not written.
    """
    lanes = math.prod(innov.shape[1:-1])   # states per row
    rows = max(1, _LANES // max(lanes, 1))
    span = max(1, _TIME_BLOCK // max(min(rows, len(innov)) * lanes, 1))
    buf = np.empty((min(span, innov.shape[-1]), min(rows, len(innov))) + innov.shape[1:-1])
    final = np.empty(innov.shape[:-1])
    for lo in range(0, len(innov), rows):
        s = state[lo: lo + rows]
        for t0 in range(0, innov.shape[-1], span):
            block = buf[: min(span, innov.shape[-1] - t0), : len(s)]
            np.copyto(block, np.moveaxis(innov[lo: lo + rows, ..., t0: t0 + span], -1, 0))
            for t in range(len(block)):
                block[t] = s = model.step(s, block[t])
            if out is not None:
                out[lo: lo + rows, ..., t0: t0 + span] = np.moveaxis(block, 0, -1)
        final[lo: lo + rows] = s
    return final


def _ma_sum(weights, innov: np.ndarray, length: int) -> np.ndarray:
    """(m+1)-tap moving average over the last axis of ``innov``.

    ``innov`` carries m leading innovations before the first output time.
    The taps are added in a fixed order, so every caller gets the same bits;
    rows go slice by slice, so no tap makes a full-size temporary.
    """
    w = np.asarray(weights)
    m = w.size - 1

    def taps(block: np.ndarray) -> np.ndarray:
        vals = np.zeros(block.shape[:-1] + (length,))
        for j in range(m + 1):
            vals += w[j] * block[..., m - j: m - j + length]
        return vals
    return _by_rows(taps, innov)


def _fill_innovations(model: ProcessModel, out: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Fill ``out`` with innovations in place; filling row chunks in order
    gives the bits of one fill of all rows."""
    if model.kind == "lazy_renewal":
        return rng.random(out=out)
    return np.multiply(rng.standard_normal(out=out), model.sigma, out=out)


def _path_starts(model: ProcessModel, reps: int, rng: np.random.Generator) -> np.ndarray:
    """The paths' starts, drawn before their innovations (zero without a state)."""
    if model.kind in ("ar1", "lazy_renewal"):
        return model.stationary_sample(reps, rng)
    return np.zeros(reps)


def _path_from(model: ProcessModel, innov: np.ndarray, starts: np.ndarray,
               n: int) -> np.ndarray:
    """Length-n paths from a row chunk of innovations (for the moving average,
    m leading ones first) and the starts drawn for it."""
    if model.kind == "iid":
        return innov   # the path is its innovations
    if model.kind == "ma":
        return _ma_sum(model.weights, innov, n)
    if model.kind == "ar1":
        from scipy.signal import lfilter   # slow to import: only here
        return lfilter([1.0], [1.0, -model.rho], innov, axis=-1,
                       zi=(model.rho * starts)[:, None])[0]
    vals = np.empty(innov.shape)
    _recurse(model, starts, innov, vals)
    return vals


def _simulate_core(model: ProcessModel, n: int, reps: int,
                   rng: np.random.Generator):
    """(values, innovations, starts) for ``reps`` independent paths."""
    starts = _path_starts(model, reps, rng)
    innov = model.draw_innovations((reps, n + model.m), rng)
    if model.kind == "iid":
        innov.flags.writeable = False   # it is also the path: no caller needs a copy
    return _path_from(model, innov, starts, n), innov, starts


_PATH_STREAM = 0x51A7   # seeded_rng(seed, _PATH_STREAM, tag) draws the paths
_CHUNK = 1 << 18        # innovations per streamed row chunk


@contextmanager
def _innovation_chunks(model: ProcessModel, n: int, reps: int,
                       rng: np.random.Generator):
    """Row chunks ``(lo, innovations, starts)`` of the draws ``_simulate_core(
    model, n, reps, rng)`` makes, bit for bit: the starts drawn whole, then
    each chunk's innovations drawn on a one-worker pool into one of two
    buffers made here while the caller builds from the chunk before.  A chunk
    is drawn over once the caller takes the next one.  The worker is joined
    when the ``with`` block ends, also when it raises.

    The pool is made per call: a pool made before a fork hangs the child.
    """
    starts = _path_starts(model, reps, rng)
    rows = max(1, min(reps, _CHUNK // (n + model.m)))
    bufs = (np.empty((rows, n + model.m)), np.empty((rows, n + model.m)))

    def fill(lo: int) -> np.ndarray:   # one worker: the fills run in order
        return _fill_innovations(model, bufs[lo // rows % 2][: reps - lo], rng)

    def chunks(pool: ThreadPoolExecutor, ahead):
        for lo in range(0, reps, rows):
            innov = ahead.result()   # raises a draw's exception here
            if lo + rows < reps:
                ahead = pool.submit(fill, lo + rows)
            yield lo, innov, starts[lo: lo + len(innov)]

    with ThreadPoolExecutor(1) as pool:
        yield chunks(pool, pool.submit(fill, 0))


def simulate_many(model: ProcessModel, n: int, reps: int, seed: int, tag: int = 0):
    """(reps, n) stationary paths plus innovations and starts (vectorized)."""
    return _simulate_core(model, n, reps, seeded_rng(seed, _PATH_STREAM, tag))


# -- empirical process --------------------------------------------------------


def empirical_process_many(values: np.ndarray, members) -> np.ndarray:
    """(reps,) sup over member pairs for a (reps, n) path matrix.

    Every member must carry its exact stationary mean; members without one
    cannot be centered and are rejected with a pointer to the class
    builders, which attach analytic or high-precision Monte Carlo means.
    """
    g = _centered_sums(list(members), values)
    return g.max(axis=0) - g.min(axis=0)


def sup_samples(model: ProcessModel, members, n: int, reps: int, seed: int,
                tag: int = 0) -> np.ndarray:
    """``empirical_process_many`` of the paths ``simulate_many(model, n, reps,
    seed, tag)`` draws, built and reduced in row chunks."""
    members = list(members)
    _require_means(members)
    sups = np.empty(reps)
    with _innovation_chunks(model, n, reps, seeded_rng(seed, _PATH_STREAM, tag)) as chunks:
        for lo, innov, starts in chunks:
            sups[lo: lo + len(innov)] = empirical_process_many(
                _path_from(model, innov, starts, n), members)
    return sups


def mc_expected_sup(model: ProcessModel, members, n: int, reps: int,
                    seed: int) -> tuple[float, float]:
    """Monte Carlo mean of the pairwise sup statistic with jackknife error.

    For the mean the leave-one-out jackknife collapses to the classical
    s / sqrt(reps); reps of at least 30 are required so the error estimate
    is meaningful.
    """
    if reps < 30:
        raise ModelError("reps must be >= 30")
    return mean_se(sup_samples(model, members, n, reps, seed, tag=0xE5))
