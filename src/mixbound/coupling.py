"""Block-independent replica paths, coupling-gap measurement, block-level
tail verification and the Gaussian strong-approximation experiment.

The replica rebuilds each length-q block from a fresh stationary start one
block early, driven by the original path's stored innovations through the
previous and current block.  Same-parity blocks therefore depend on
disjoint randomness and are exactly independent, while every block keeps
the stationary block law.  Block zero has no room for a lead-in on a
one-sided simulation and is taken from the path itself, which keeps its
law and its independence from blocks two onward while making its coupling
error zero.  For independent data the replica is the path itself; for a
moving average with memory within one block the lead-in reconstructs the
window exactly and the two paths coincide bit for bit.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtri
from scipy.stats import beta as _beta

from .function_classes import _LINEAR_MEMBERS
from .grid import divisor_chain, member_exponents, nearest_divisor
from .mixing import MixingProfile, estimate_tau
from .norms import QuantileCurve, dependence_norm
from .processes import (ProcessModel, centered_sums, mean_se, seeded_rng,
                        simulate_many, _PATH_STREAM, _centered_sums, _chunk_rows,
                        _innovation_chunks, _ma_sum, _member_sums, _path_from,
                        _recurse, _require_means)


class CouplingError(ValueError):
    pass


# -- replica construction ----------------------------------------------------


def _check_block_length(n: int, q: int) -> None:
    if q < 1:
        raise CouplingError(f"q must be >= 1, got {q}")
    if q not in divisor_chain(n).divisors:
        raise CouplingError(f"q={q} does not divide n={n}")


def _replicate_recursive(model: ProcessModel, head: np.ndarray, innovations: np.ndarray,
                         state0: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """Replica paths for recursive kinds, into ``out``; innovations is (reps, n)."""
    reps, n = innovations.shape
    nblocks = n // q
    out[:, :q] = head  # block zero: no lead-in room, copy the path
    blocks = innovations.reshape(reps, nblocks, q)
    # Every block j >= 1 at once: a lead-in through block j-1 from a fresh
    # stationary start, then block j itself.
    state = _recurse(model, state0[:, 1:], blocks[:, :-1])
    _recurse(model, state, blocks[:, 1:], out.reshape(reps, nblocks, q)[:, 1:])
    return out


def _replicate_ma(model: ProcessModel, innovations: np.ndarray, q: int,
                  fresh: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Replica for the moving average, into ``out``; innovations carry the m-term prepad."""
    # Block j reads innovation columns qj .. qj + q + m - 1 (times qj+1-m .. qj+q).
    windows = sliding_window_view(innovations, q + model.m, axis=1)[:, ::q]
    # Times at or before q(j-1), the first k = m - q columns of block j >= 1,
    # are replaced by fresh noise so block j is independent of blocks <= j-2;
    # block zero keeps its true prehistory.  Without fresh noise (k = 0, or one
    # block) the windows are read in place: for q >= m the replica is the path.
    if fresh.size:
        windows = windows.copy()
        windows[:, 1:, :fresh.shape[-1]] = fresh
    _ma_sum(model.weights, windows, q, out.reshape(len(out), -1, q))
    return out


def _replicas(model: ProcessModel, n: int, q: int, reps: int, rows: int,
              rng: np.random.Generator):
    """``build(lo, head, innovations)``, called on chunks of up to ``rows`` rows in order,
    gives the replicas of those reps from their innovations and their paths' block zero
    ``head``, in one buffer that the next call draws over.  The replica stream's draws:
    AR(1)'s (rows, nblocks) fresh block starts are drawn per chunk (a row-major fill: the
    bits of one whole draw); the renewal chain's (all the uniforms, then all the Zipf
    values) and the moving average's (nblocks - 1, reps, m - q) fresh noise (block-major,
    empty unless its memory reaches past one block) are drawn whole, up front."""
    nblocks = n // q
    if model.kind == "iid":
        return lambda lo, head, innov: innov   # the path is its own replica
    buf = np.empty((rows, n))
    if model.kind == "ma":
        fresh = model.sigma * rng.standard_normal((nblocks - 1, reps, max(0, model.m - q)))
        return lambda lo, head, innov: _replicate_ma(
            model, innov, q, fresh.transpose(1, 0, 2)[lo: lo + len(innov)], buf[: len(innov)])
    whole = (None if model.kind == "ar1" else
             model.stationary_sample(reps * nblocks, rng).reshape(reps, nblocks))

    def build(lo, head, innov):
        starts = (model.stationary_sample(len(innov) * nblocks, rng).reshape(-1, nblocks)
                  if whole is None else whole[lo: lo + len(innov)])
        return _replicate_recursive(model, head, innov, starts, q, buf[: len(innov)])
    return build


_REPLICA_STREAM = 0xC0FF   # seeded_rng(seed, _REPLICA_STREAM, tag) draws the replicas


def replicate_many(model: ProcessModel, values: np.ndarray, innovations: np.ndarray,
                   q: int, seed: int, tag: int = 0) -> np.ndarray:
    """Vectorized replica paths from stored paths and innovations (internal)."""
    build = _replicas(model, values.shape[1], q, len(values), len(values),
                      seeded_rng(seed, _REPLICA_STREAM, tag))
    return build(0, values[:, :q], innovations)


@contextmanager
def _coupled_chunks(model: ProcessModel, n: int, q: int, reps: int, seed: int, tag: int):
    """Row chunks ``(lo, innovations, starts, replicas)`` of ``coupled_paths(model, n,
    q, reps, seed, tag)``, bit for bit, streamed as ``_innovation_chunks`` streams them,
    the replicas too drawn over once the caller takes the next chunk; ``_path_from(model,
    innovations, starts, n)`` builds the paths, whose block zero the replicas copy."""
    _check_block_length(n, q)
    build = _replicas(model, n, q, reps, _chunk_rows(model, n, reps),
                      seeded_rng(seed, _REPLICA_STREAM, tag))
    with _innovation_chunks(model, n, reps, seeded_rng(seed, _PATH_STREAM, tag)) as chunks:
        yield ((lo, innov, starts,
                build(lo, _path_from(model, innov[:, :q + model.m], starts, q), innov))
               for lo, innov, starts in chunks)


# -- coupling gap -------------------------------------------------------------


def coupled_paths(model: ProcessModel, n: int, q: int, reps: int, seed: int,
                  tag: int) -> tuple[np.ndarray, np.ndarray]:
    """(paths, replicas): ``reps`` stationary paths and their block-q replicas.

    The whole-array form of the row chunks ``_coupled_chunks`` streams: the
    same draws and the same path and replica kernels, run on all rows at once.
    """
    _check_block_length(n, q)
    vals, innov, _ = simulate_many(model, n, reps, seed, tag=tag)
    return vals, replicate_many(model, vals, innov, q, seed, tag=tag)


def sup_gaps(values: np.ndarray, replica: np.ndarray, members) -> np.ndarray:
    """(reps,) sup over the class of |G_n f(paths) - G_n f(replicas)|; the
    centering cancels."""
    members = tuple(members)
    diff = _member_sums(members, values) - _member_sums(members, replica)
    return (np.abs(diff) / math.sqrt(values.shape[-1])).max(axis=0)


def gap_samples(model: ProcessModel, members, n: int, q: int, reps: int,
                seed: int) -> np.ndarray:
    """(reps,) sup-gaps between paths and their replicas (vectorized)."""
    return sup_gaps(*coupled_paths(model, n, q, reps, seed, tag=q), members)


# -- block independence -------------------------------------------------------


@dataclass(frozen=True)
class IndependenceReport:
    n_pairs: int               # adjacent-pair observations pooled into the test
    pooled_corr: float
    threshold: float
    passed: bool


def _parity_blocks(n: int, q: int, reps: int, parity: str) -> np.ndarray:
    """Indices of the blocks ``block_independence_test`` pools for ``parity``;
    raises unless there are at least two of them and 30 across reps."""
    if parity not in ("even", "odd"):
        raise CouplingError(f"parity must be 'even' or 'odd', got {parity!r}")
    if q < 1:
        raise CouplingError(f"q must be >= 1, got {q}")
    idx = np.arange(0 if parity == "even" else 1, n // q, 2)
    if idx.size < 2:
        raise CouplingError("need at least two same-parity blocks")
    if reps * idx.size < 30:
        raise CouplingError("need at least 30 same-parity blocks across reps")
    return idx


def block_independence_test(values: np.ndarray, q: int,
                            parity: str = "even") -> IndependenceReport:
    """Adjacent same-parity block-sum correlation against 3/sqrt(pairs).

    ``values`` is a (reps, n) matrix (replica or raw paths).  All adjacent
    same-parity block-sum pairs are pooled, across positions and
    replications, into one correlation: under exact independence the
    pooled estimate has standard error 1/sqrt(pairs), so the factor-three
    threshold gives a single 3-sigma test free of multiplicity.
    """
    if values.ndim != 2:
        raise CouplingError("values must be a (reps, n) matrix")
    reps, n = values.shape
    idx = _parity_blocks(n, q, reps, parity)
    nblocks = n // q
    sums = values[:, : nblocks * q].reshape(reps, nblocks, q).sum(axis=2)[:, idx]
    a = sums[:, :-1].ravel()
    b = sums[:, 1:].ravel()
    pooled = float(np.corrcoef(a, b)[0, 1])
    n_pairs = a.size
    threshold = 3.0 / math.sqrt(n_pairs)
    return IndependenceReport(n_pairs=n_pairs, pooled_corr=pooled, threshold=threshold,
                              passed=abs(pooled) < threshold)


# -- block-sum tail verification ----------------------------------------------


@dataclass(frozen=True)
class TailPoint:
    u: float
    threshold: float
    exceedances: int
    frequency: float
    wald_ucl: float
    clopper_ucl: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class BernsteinReport:
    applicable: bool
    reason: str
    b: float
    points: tuple[TailPoint, ...]

    @property
    def passed(self) -> bool:
        return self.applicable and all(p.passed for p in self.points)


def bernstein_check(model: ProcessModel, member, curve: QuantileCurve,
                    profile: MixingProfile, n: int, q: int, k: int, reps: int,
                    seed: int) -> BernsteinReport:
    """Exceedance frequencies of the replica process against 2 exp(-u 2^k),
    at u = 1, 1.5 and 2.

    ``curve`` must be the exact quantile curve of |f(X)| under the marginal
    law; the scale b is the dependence norm of that curve and the two
    preconditions (sup bound against 2 sqrt(n) b / (q sqrt(2^k)), and b at
    least the norm) are enforced, reporting the bound as inapplicable rather
    than a failure when violated.  The pass rule compares a one-sided 95
    percent upper confidence limit for the exceedance probability with the
    theoretical tail; the exact Clopper-Pearson limit is reported alongside.
    """
    _check_block_length(n, q)
    if reps < 1:
        raise CouplingError(f"reps must be >= 1, got {reps}")
    _require_means((member,))
    if member.sup_bound is None:
        raise CouplingError("member needs a finite sup bound")
    b = dependence_norm(curve, q, profile)
    cap = 2.0 * math.sqrt(n) * b / (q * math.sqrt(2.0**k))
    if not member.sup_bound <= cap:   # a NaN scale makes the bound inapplicable too
        return BernsteinReport(
            applicable=False,
            reason=f"tail bound inapplicable: sup bound {member.sup_bound:.6g} "
                   f"is not at most {cap:.6g}",
            b=b, points=())
    gstar = np.empty(reps)
    with _coupled_chunks(model, n, q, reps, seed, 0xBE00 + k) as chunks:
        for lo, _, _, replica in chunks:
            gstar[lo: lo + len(replica)] = centered_sums(member, replica)
    points = []
    for u in (1.0, 1.5, 2.0):
        threshold = u * math.sqrt(2.0**k) * b * (16.0 / 3.0)
        x = int(np.count_nonzero(np.abs(gstar) >= threshold))
        freq = x / reps
        wald = freq + 1.645 * math.sqrt(max(freq * (1.0 - freq), 0.0) / reps)
        clopper = 1.0 if x == reps else float(_beta.ppf(0.95, x + 1, reps - x))
        bound = 2.0 * math.exp(-u * 2.0**k)
        points.append(TailPoint(u=float(u), threshold=threshold, exceedances=x,
                                frequency=freq, wald_ucl=wald, clopper_ucl=clopper,
                                bound=bound, passed=wald <= bound))
    return BernsteinReport(applicable=True, reason="", b=b, points=tuple(points))


# -- Gaussian coupling --------------------------------------------------------


def _reference_pool(model: ProcessModel, members, q: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Centered block sums of the blocks ``_simulate_core(model, q, POOL_SIZE,
    rng)`` draws, bit for bit, one row per member, streamed in row chunks.

    The block sums have exact mean zero; centering the pool removes the
    transform's first-order location error, which would otherwise
    accumulate across blocks."""
    sums = np.empty((len(members), POOL_SIZE))
    with _innovation_chunks(model, q, POOL_SIZE, rng) as chunks:
        for lo, innov, starts in chunks:
            sums[:, lo: lo + len(innov)] = _centered_sums(
                members, _path_from(model, innov, starts, q))
    sums -= sums.mean(axis=-1, keepdims=True)
    return sums


def gaussian_couple(sums: np.ndarray, sd: float,
                    sorted_pool: np.ndarray | None = None) -> np.ndarray:
    """Coupled Gaussian totals of block sums by per-block comonotone
    Gaussianization: the scaled, block-count-normalized sum over the last axis.

    With ``sorted_pool`` (a large reference sample of independent stationary
    block sums, sorted ascending) each sum is pushed through the smoothed
    empirical distribution and the standard normal quantile; without it the
    block law is taken to be exactly Gaussian (valid for linear functions of
    Gaussian models) and the transform reduces to division by sd.
    """
    if sd <= 0:
        raise CouplingError("sd must be > 0")
    if sorted_pool is None:
        z = sums / sd
    else:
        ranks = np.searchsorted(sorted_pool, sums, side="right")
        z = ndtri((ranks + 0.5) / (sorted_pool.size + 1.0))
    return sd * z.sum(axis=-1) / math.sqrt(sums.shape[-1])


@dataclass(frozen=True)
class StrongApproxPoint:
    n: int
    q: int
    gap_mean: float
    gap_se: float
    tau_hat: float
    finite_dim_term: float
    coupling_term: float
    bound: float
    implied_ratio: float


@dataclass(frozen=True)
class StrongApproxReport:
    points: tuple[StrongApproxPoint, ...]
    monotone: bool
    within_bound: bool


def _coupling_gaps(model: ProcessModel, members, couplings, n: int, q: int, reps: int,
                   seed: int) -> np.ndarray:
    """(reps,) sup over members of |G_n f - coupled Gaussian total|; no chunk outlives it."""
    gaps = np.empty((len(members), reps))
    with _coupled_chunks(model, n, q, reps, seed, tag=n) as chunks:
        for lo, innov, starts, replica in chunks:
            cols = slice(lo, lo + len(innov))
            gns = _centered_sums(members, _path_from(model, innov, starts, n))
            sums = _centered_sums(members, replica.reshape(len(replica), -1, q))
            for i, (sd, sorted_pool) in enumerate(couplings):
                # A degenerate member (sd 0) is coupled to the zero Gaussian.
                total = gaussian_couple(sums[i], sd, sorted_pool) if sd else 0.0
                gaps[i, cols] = np.abs(gns[i] - total)
    return gaps.max(axis=0)


TAU_REPS = (200, 200)    # outer and inner draws of each class tau estimate
POOL_SIZE = 20000        # independent reference blocks of each Gaussian coupling


def strong_approx_experiment(model: ProcessModel, members, n_grid, reps: int, seed: int,
                             gamma_order: float = math.inf) -> StrongApproxReport:
    """Gap between the sample-average process and a coupled Gaussian one.

    Per grid point, with the divisor of n nearest sqrt(n) as block length:
    simulate paths and replicas, Gaussianize the replica block sums per
    member (marginal comonotone transform against a pooled reference of
    independent stationary blocks), assemble the coupled
    Gaussian total with the block-sum standard deviation as its scale, and
    measure E sup over members of the absolute difference.  The finite
    class is its own zero-radius cover, so the comparison bound reduces to
    the finite-dimensional moment term plus the scaled dependence
    coefficient; the implied constant ratio is reported per point.
    """
    if not (gamma_order >= 2):   # NaN fails every comparison
        raise CouplingError("gamma_order must be in [2, inf]")
    if reps < 2:
        raise CouplingError(f"reps must be >= 2 for a standard error, got {reps}")
    n_grid = tuple(n_grid)
    if not n_grid:
        raise CouplingError("n_grid is empty")
    for lo, hi in zip(n_grid, n_grid[1:]):   # equal points would share every stream
        if not hi > lo:
            raise CouplingError(f"n_grid must be strictly increasing: {hi} follows {lo}")
    if not model.is_markov:
        raise CouplingError(f"strong approximation needs a Markov process for its "
                            f"tau term; {model.spec()} is not")
    members = list(members)
    _require_means(members)
    if gamma_order == math.inf and any(m.sup_bound is None for m in members):
        raise CouplingError("gamma=inf needs finite sup bounds")
    for n in n_grid:   # an off-lattice n is refused before its square root is taken
        member_exponents(n)
    qs = [nearest_divisor(n, math.sqrt(n)) for n in n_grid]
    exponent = 0.5 if gamma_order == math.inf else (gamma_order - 2.0) / (2.0 * gamma_order)
    points = []
    for n, q in zip(n_grid, qs):
        pools = _reference_pool(model, members, q, seeded_rng(seed, 0x900, n))
        couplings = []   # (sd, sorted pool or None) per member
        sig_gamma_sum = 0.0
        for mem, pool_sums in zip(members, pools):
            linear_gaussian = model.is_gaussian_linear and mem.name in _LINEAR_MEMBERS
            if linear_gaussian:
                # Block sums are exactly Gaussian: analytic scale, identity
                # transform, no pool noise in the coupling.
                sd = math.sqrt(model.block_variance(q))
            else:
                sd = float(pool_sums.std(ddof=1))
            # Sorted once here; the transform reads it sorted in every chunk.
            couplings.append((sd, None if linear_gaussian else np.sort(pool_sums)))
            if gamma_order == math.inf:
                sig_gamma_sum += math.sqrt(q) * float(mem.sup_bound)
            else:   # M * mean((|x| / M)^gamma)^(1/gamma), M = max |x|: finite, at most M
                top = float(np.abs(pool_sums).max())
                sig_gamma_sum += top and top * float(
                    ((np.abs(pool_sums) / top) ** gamma_order).mean() ** (1.0 / gamma_order))
        del pools, pool_sums   # the sorted copies are all the stream needs
        gap_mean, gap_se = mean_se(_coupling_gaps(model, members, couplings, n, q, reps, seed))
        tau = estimate_tau(model, members, q, *TAU_REPS, seed + n)
        finite_dim = (q / n) ** exponent * sig_gamma_sum
        coupling_term = math.sqrt(n) * tau.value
        bound = finite_dim + coupling_term
        points.append(StrongApproxPoint(
            n=int(n), q=int(q), gap_mean=gap_mean, gap_se=gap_se, tau_hat=tau.value,
            finite_dim_term=finite_dim, coupling_term=coupling_term,
            bound=bound, implied_ratio=gap_mean / bound if bound > 0 else math.inf,
        ))
    # Ordering certified at 95 percent: one-sided z-test on each adjacent
    # difference of means (exact ties, e.g. identically zero gaps, pass).
    def decreases(lo: StrongApproxPoint, hi: StrongApproxPoint) -> bool:
        if math.isclose(lo.gap_mean, hi.gap_mean, abs_tol=1e-12):
            return True
        se = math.hypot(lo.gap_se, hi.gap_se)
        return lo.gap_mean - hi.gap_mean >= 1.645 * se

    monotone = all(decreases(lo, hi) for lo, hi in zip(points, points[1:]))
    within = all(p.gap_mean <= p.bound < math.inf for p in points)
    return StrongApproxReport(points=tuple(points), monotone=monotone,
                              within_bound=within)
