"""Partition-based complexity of finite function classes under a family of
norms: exact search on small classes, a greedy upper bound, and the
telescoping chain decomposition with threshold stopping.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .grid import BlockSchedule, block_schedule
from .mixing import MixingProfile
from .norms import QuantileCurve, dependence_norm, dependence_norms

EXACT_SEARCH_LIMIT = 8
LEVEL1_CAP = 4  # cardinality cap 2^(2^l) at l = 1


class ChainingError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionClass:
    """Finite function class as evaluation vectors over a weighted grid.

    table
        Shape (members, points); row i is member i evaluated on the grid.
    weights
        Probability weights over the grid points (non-negative, sum 1).
    names
        Optional member labels.
    """

    table: np.ndarray
    weights: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if t.ndim != 2 or t.shape[0] == 0:
            raise ChainingError("table must be a non-empty (members, points) array")
        if w.shape != (t.shape[1],):
            raise ChainingError("weights must match the number of grid points")
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise ChainingError("table and weights must be finite")
        if np.any(w < 0) or not math.isclose(float(w.sum()), 1.0, rel_tol=1e-9):
            raise ChainingError("weights must be non-negative and sum to 1")
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "weights", w)
        if self.names and len(self.names) != t.shape[0]:
            raise ChainingError("names must match the number of members")

    @property
    def size(self) -> int:
        return int(self.table.shape[0])


Partition = tuple[tuple[int, ...], ...]


def _normalize_partition(cells: Iterable[Iterable[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(c)) for c in cells))


@dataclass(frozen=True)
class PartitionSequence:
    """Nested partitions with card(level l) <= 2^(2^l) and a trivial level 0."""

    levels: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ChainingError("need at least the trivial level")
        object.__setattr__(
            self, "levels", tuple(_normalize_partition(p) for p in self.levels)
        )
        base = sorted(i for cell in self.levels[0] for i in cell)
        if len(self.levels[0]) != 1:
            raise ChainingError("level 0 must be a single cell")
        for l, part in enumerate(self.levels):
            elems = sorted(i for cell in part for i in cell)
            if elems != base:
                raise ChainingError(f"level {l} is not a partition of the index set")
            if len(part) > 2 ** (2**l):
                raise ChainingError(f"level {l} exceeds the cardinality cap")
        for lo, hi in zip(self.levels, self.levels[1:]):
            lookup = {i: cell for cell in lo for i in cell}
            for cell in hi:
                parents = {lookup[i] for i in cell}
                if len(parents) != 1 or not set(cell) <= set(next(iter(parents))):
                    raise ChainingError("levels must be nested refinements")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def cell_of(self, level: int, member: int) -> tuple[int, ...]:
        part = self.levels[min(level, self.depth)]
        for cell in part:
            if member in cell:
                return cell
        raise ChainingError(f"member {member} missing at level {level}")

    def fully_separated(self) -> bool:
        return all(len(c) == 1 for c in self.levels[-1])


def cell_diameter(cls: FunctionClass, cell: Sequence[int]) -> np.ndarray:
    """Pointwise sup over member pairs in the cell of |f1 - f2|.

    For real-valued rows this is max minus min per grid point; a singleton
    cell gives the zero vector.
    """
    rows = cls.table[list(cell)]
    return rows.max(axis=0) - rows.min(axis=0)


# -- norm families ---------------------------------------------------------


@dataclass(frozen=True)
class NormFamily:
    """Per-level seminorm evaluators d_0, d_1, ... applied to |vectors|.

    ``evaluator(level, rows, weights)`` scores every row of a (rows, points)
    array of absolute values at once.  Every evaluator must be monotone
    under pointwise domination of absolute values (all families built here
    are); the exact partition search relies on that to force full
    separation as soon as the cardinality caps allow.
    """

    evaluator: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    label: str

    def norms(self, level: int, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(level, np.abs(rows), weights), dtype=float)

    def norm(self, level: int, vec: np.ndarray, weights: np.ndarray) -> float:
        return float(self.norms(level, np.reshape(vec, (1, -1)), weights)[0])


def l2_family() -> NormFamily:
    return NormFamily(
        evaluator=lambda level, rows, w: np.sqrt((w * rows * rows).sum(axis=-1)),
        label="constant:l2")


def lr_family(r: float) -> NormFamily:
    if not (0.0 < r < math.inf):
        raise ChainingError(f"r must be > 0 and finite, got {r}")
    # The root is a scalar power per row: a vector power may differ in its last bits.
    return NormFamily(
        evaluator=lambda level, rows, w: [
            s ** (1.0 / r) for s in (w * rows**r).sum(axis=-1).tolist()],
        label=f"constant:lr,r={r:g}")


def schedule_family(schedule: BlockSchedule) -> NormFamily:
    """Level l evaluates the dependence norm at the level-l block length."""

    def ev(level: int, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return dependence_norms(rows, w, schedule.q_at(level), schedule.profile)

    return NormFamily(evaluator=ev, label=f"schedule:n={schedule.n}")


# -- complexity ------------------------------------------------------------


def _enumerate_partitions(items: tuple[int, ...], max_blocks: int) -> Iterator[Partition]:
    def rec(idx: int, blocks: list[list[int]]) -> Iterator[Partition]:
        if idx == len(items):
            yield _normalize_partition(blocks)
            return
        x = items[idx]
        for b in blocks:
            b.append(x)
            yield from rec(idx + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([x])
            yield from rec(idx + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


@functools.lru_cache(maxsize=16)
def _partition_table(items: tuple[int, ...], max_blocks: int) -> tuple[Partition, ...]:
    return tuple(_enumerate_partitions(items, max_blocks))


def partitions_into_at_most(items: Sequence[int], max_blocks: int) -> Iterator[Partition]:
    """All set partitions of ``items`` into at most ``max_blocks`` blocks.

    Enumerations over at most EXACT_SEARCH_LIMIT items (at most 4,140
    partitions) are cached, so repeated searches do not rebuild them.
    """
    items = tuple(items)
    if len(items) <= EXACT_SEARCH_LIMIT:
        yield from _partition_table(items, max_blocks)
    else:
        yield from _enumerate_partitions(items, max_blocks)


def _mask(cell: Iterable[int]) -> int:
    return sum(1 << i for i in cell)


CellNorms = Callable[[int, Sequence[Sequence[int]]], list[float]]


def _memo_cell_norms(cls: FunctionClass, family: NormFamily) -> CellNorms:
    """d_level(cell diameter) per cell, memoised per (level, cell bitmask) for
    one call; the cells a request misses are scored in one ``norms`` call."""
    memo: dict[tuple[int, int], float] = {}

    def cell_norms(level: int, cells: Sequence[Sequence[int]]) -> list[float]:
        keys = [(level, _mask(cell)) for cell in cells]
        missing = {key: cell for key, cell in zip(keys, cells) if key not in memo}
        if missing:
            rows = np.array([cell_diameter(cls, cell) for cell in missing.values()])
            memo.update(zip(missing, family.norms(level, rows, cls.weights).tolist()))
        return [memo[key] for key in keys]

    return cell_norms


def sequence_value(cls: FunctionClass, family: NormFamily,
                   seq: PartitionSequence) -> float:
    """sqrt(2) * sup_f sum_l 2^(l/2) d_l(diameter of f's level-l cell).

    Levels past the last stored partition repeat it; once every cell is a
    singleton the remaining terms vanish, so the sum is finite for fully
    separated sequences.
    """
    return _sequence_value(cls, seq, _memo_cell_norms(cls, family))


def _sequence_value(cls: FunctionClass, seq: PartitionSequence,
                    cell_norms: CellNorms) -> float:
    if not seq.fully_separated():
        raise ChainingError("sequence must reach singleton cells")
    per_member = np.zeros(cls.size)
    for level, part in enumerate(seq.levels):
        coeff = 2.0 ** (level / 2.0)
        cells = [cell for cell in part if len(cell) > 1]
        for cell, d in zip(cells, cell_norms(level, cells)):
            for i in cell:
                per_member[i] += coeff * d
    return math.sqrt(2.0) * float(per_member.max())


def _separation_level(size: int) -> int:
    """First level whose cardinality cap covers the whole class."""
    level = 0
    while 2 ** (2**level) < size:
        level += 1
    return level


def _subset_diameters(table: np.ndarray) -> np.ndarray:
    """Row s is the cell diameter of the members whose bits are set in s.

    Built by doubling: the rows with top bit b extend the rows below 2^b by
    member b.  max and min are exact, so every row carries the same bits as
    :func:`cell_diameter` on that cell.  Row 0 (the empty cell) is unused.
    """
    size, npts = table.shape
    hi = np.full((1 << size, npts), -np.inf)
    lo = np.full((1 << size, npts), np.inf)
    for b in range(size):
        np.maximum(hi[: 1 << b], table[b], out=hi[1 << b: 2 << b])
        np.minimum(lo[: 1 << b], table[b], out=lo[1 << b: 2 << b])
    return np.subtract(hi, lo, out=hi)


@functools.lru_cache(maxsize=16)
def _cell_masks(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per partition of ``size`` members into at most LEVEL1_CAP cells, in
    enumeration order, its cell bitmasks padded with the empty cell 0; and
    the sorted distinct masks of the cells with two or more members."""
    parts = _partition_table(tuple(range(size)), LEVEL1_CAP)
    masks = np.zeros((len(parts), LEVEL1_CAP), dtype=np.intp)
    for r, part in enumerate(parts):
        masks[r, : len(part)] = [_mask(cell) for cell in part]
    cells = np.unique(masks)
    cells = cells[(cells & (cells - 1)) != 0]
    for arr in (masks, cells):
        arr.flags.writeable = False  # shared by every caller through the cache
    return masks, cells


def complexity_exact(cls: FunctionClass, family: NormFamily
                     ) -> tuple[float, PartitionSequence]:
    """Exact infimum of the weighted-diameter functional on a small class.

    Enumerates every admissible nested refinement; for monotone norm
    families nothing is lost by separating fully as soon as the caps allow,
    so only the level-1 partition (cap 4) is a genuine choice for classes
    of up to eight members.  Cells are indexed by member bitmask: every
    cell diameter comes from one subset table, every multi-member cell's
    level-1 norm comes from one ``norms`` call, and the level-1 partitions
    are scored together; the first minimum wins.  Classes above the search
    budget are refused; use :func:`complexity_greedy` there.
    """
    size = cls.size
    if size > EXACT_SEARCH_LIMIT:
        raise ChainingError(
            f"class size {size} exceeds the exact search budget "
            f"{EXACT_SEARCH_LIMIT}; use complexity_greedy"
        )
    indices = list(range(size))
    trivial = _normalize_partition([indices])
    singles = _normalize_partition([[i] for i in indices])
    if size == 1:
        seq = PartitionSequence(levels=(trivial,))
        return 0.0, seq
    parts = tuple(partitions_into_at_most(indices, LEVEL1_CAP))
    masks, cells = _cell_masks(size)
    diam = _subset_diameters(cls.table)
    d0 = family.norm(0, diam[-1], cls.weights)
    d1 = np.zeros(len(diam))
    d1[cells] = family.norms(1, diam[cells], cls.weights)
    sqrt2 = math.sqrt(2.0)
    vals = sqrt2 * (d0 + sqrt2 * d1[masks].max(axis=1))
    best = int(np.argmin(vals))
    best_p1 = parts[best]
    levels: list[Partition] = [trivial, best_p1]
    if any(len(c) > 1 for c in best_p1):
        levels.append(singles)  # cap at level 2 is 16 >= size
    best_seq = PartitionSequence(levels=tuple(levels))
    return float(vals[best]), best_seq


def complexity_greedy(cls: FunctionClass, family: NormFamily) -> float:
    """Upper bound from furthest-pair-first nested refinement.

    At each level the cell with the largest diameter norm is split around
    its two most separated members until the level's cardinality cap is
    reached, down to the level whose cap separates the class.  Always at
    least the exact value; equal on classes of size up to two, where the
    refinement is forced.  Norms are memoised per (level, cell); a pair's
    distance is the norm of its two-member cell, and the pairs of the cell
    being split are scored in one ``norms`` call.
    """
    size = cls.size
    indices = list(range(size))
    levels: list[Partition] = [_normalize_partition([indices])]
    current: list[list[int]] = [indices[:]]
    cell_norms = _memo_cell_norms(cls, family)

    def dist(level: int, i: int, j: int) -> float:
        return cell_norms(level, [(i, j)])[0]

    for level in range(1, _separation_level(size) + 2):
        cap = 2 ** (2**level)
        current = [list(c) for c in current]
        while len(current) < min(cap, size):
            multi = [k for k, c in enumerate(current) if len(c) > 1]
            if not multi:
                break
            _, k = max(zip(cell_norms(level, [current[k] for k in multi]), multi))
            cell = current[k]
            pairs = list(combinations(cell, 2))
            cell_norms(level, pairs)  # fills the memo in one call
            si, sj = max(pairs, key=lambda p: dist(level, *p))
            a, b = [si], [sj]
            for x in cell:
                if x in (si, sj):
                    continue
                (a if dist(level, x, si) <= dist(level, x, sj) else b).append(x)
            current[k] = a
            current.append(b)
        levels.append(_normalize_partition(current))
        if all(len(c) == 1 for c in current):
            break
    return _sequence_value(cls, PartitionSequence(levels=tuple(levels)), cell_norms)


# -- chain decomposition ---------------------------------------------------


@dataclass(frozen=True)
class ChainDecomposition:
    """Links, thresholds and the verified telescoping identity for one pair.

    ``residual`` is the sup-norm gap between f - f0 and the reassembled
    three-part sum; ``binding`` flags whether any threshold actually
    truncated a link somewhere on the grid.
    """

    thresholds: tuple[float, ...]
    stop_index: np.ndarray
    deltas: tuple[np.ndarray, ...]
    xis: tuple[np.ndarray, ...]
    reconstruction: np.ndarray
    residual: float
    binding: bool


def chain_decomposition(cls: FunctionClass, f: int, f0: int,
                        partitions: PartitionSequence, profile: MixingProfile,
                        n: int) -> ChainDecomposition:
    """Decompose f - f0 along the partition chain with stopping thresholds.

    The level-0 center is f0 itself and the level-0 diameter operator is
    identically zero, so the stopping index is always at least one; at
    levels k >= 1 the center is the lexicographically first member of f's
    cell.  Thresholds scale the level-k diameter norm (at the level-k block
    length) by 2 sqrt(n) / (q_k sqrt(2^(k+1))).  The identity

        f - f0 = sum_k delta_k 1{stop >= k, |D_k| <= a_k}
                 - sum_k xi_{k-1} 1{stop = k, |D_k| > a_k}
                 - xi_0 1{stop = 0}

    is evaluated pointwise and its residual reported.
    """
    if not (0 <= f < cls.size and 0 <= f0 < cls.size):
        raise ChainingError("f and f0 must index class members")
    if not partitions.fully_separated():
        raise ChainingError("partition sequence must reach singleton cells")
    sched = block_schedule(n, profile)
    depth = partitions.depth
    npts = cls.table.shape[1]
    row_f = cls.table[f]

    diam = [np.zeros(npts)]
    thresholds = [0.0]
    centers = [f0]
    for k in range(1, depth + 1):
        cell = partitions.cell_of(k, f)
        dvec = cell_diameter(cls, cell)
        diam.append(dvec)
        qk = sched.q_at(k)
        if np.any(dvec > 0):
            curve = QuantileCurve.from_discrete(dvec, cls.weights)
            dnorm = dependence_norm(curve, qk, profile)
        else:
            dnorm = 0.0
        thresholds.append(
            math.sqrt(n) * 2.0 * dnorm / (qk * math.sqrt(2.0 ** (k + 1)))
        )
        centers.append(min(cell))

    # Pointwise stopping index: first level whose diameter exceeds its threshold.
    stop = np.full(npts, depth + 1, dtype=int)  # depth + 1 encodes "never"
    for k in range(depth, -1, -1):
        stop[np.abs(diam[k]) > thresholds[k]] = k

    deltas, xis = [], []
    for k in range(depth + 1):
        xis.append(cls.table[centers[k]] - row_f)
        if k >= 1:
            deltas.append(cls.table[centers[k]] - cls.table[centers[k - 1]])

    recon = np.zeros(npts)
    binding = bool(np.any(stop <= depth))
    for k in range(1, depth + 1):
        keep = (stop >= k) & (np.abs(diam[k]) <= thresholds[k])
        recon += deltas[k - 1] * keep
        drop = (stop == k) & (np.abs(diam[k]) > thresholds[k])
        recon -= xis[k - 1] * drop
    recon -= xis[0] * (stop == 0)
    residual = float(np.max(np.abs((row_f - cls.table[f0]) - recon)))
    return ChainDecomposition(
        thresholds=tuple(thresholds), stop_index=stop,
        deltas=tuple(deltas), xis=tuple(xis),
        reconstruction=recon, residual=residual, binding=binding,
    )
