import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbound import chaining as ch
from mixbound import grid as gr
from mixbound import mixing as mx
from mixbound import norms as nm


def make_class(rng, size, npts=20):
    return ch.FunctionClass(table=rng.normal(0, 1, (size, npts)),
                            weights=rng.dirichlet(np.ones(npts)))


FAMILIES = [ch.l2_family(), ch.lr_family(4.0)]


def test_cell_diameter():
    cls = ch.FunctionClass(table=np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.0]]),
                           weights=np.array([0.5, 0.5]))
    assert np.allclose(ch.cell_diameter(cls, (0,)), [0.0, 0.0])
    assert np.allclose(ch.cell_diameter(cls, (0, 1)), [2.0, 2.0])
    # Three members: pointwise max over the pairwise gaps.
    pairmax = np.max([np.abs(cls.table[i] - cls.table[j])
                      for i in range(3) for j in range(i + 1, 3)], axis=0)
    assert np.allclose(ch.cell_diameter(cls, (0, 1, 2)), pairmax)


def test_partition_sequence_validation():
    with pytest.raises(ch.ChainingError):
        ch.PartitionSequence(levels=(((0,), (1,)),))  # level 0 not trivial
    with pytest.raises(ch.ChainingError):
        ch.PartitionSequence(levels=(((0, 1),), ((0,),)))  # loses an element
    with pytest.raises(ch.ChainingError):  # not nested
        ch.PartitionSequence(levels=(
            ((0, 1, 2, 3),), ((0, 1), (2, 3)), ((0, 2), (1,), (3,))))
    seq = ch.PartitionSequence(levels=(((0, 1),), ((0,), (1,))))
    assert seq.fully_separated()


def test_singleton_class_zero():
    rng = np.random.default_rng(0)
    cls = make_class(rng, 1)
    value, _ = ch.complexity_exact(cls, ch.l2_family())
    assert value == 0.0
    assert ch.complexity_greedy(cls, ch.l2_family()) == 0.0


def test_two_member_closed_form():
    rng = np.random.default_rng(1)
    cls = make_class(rng, 2)
    fam = ch.l2_family()
    value, witness = ch.complexity_exact(cls, fam)
    d0 = fam.norm(0, np.abs(cls.table[0] - cls.table[1]), cls.weights)
    assert math.isclose(value, math.sqrt(2) * d0, rel_tol=1e-15)
    assert ch.complexity_greedy(cls, fam) == value


def test_exact_beats_random_admissible_sequences():
    rng = np.random.default_rng(2)
    cls = make_class(rng, 6)
    fam = ch.lr_family(4.0)
    best, _ = ch.complexity_exact(cls, fam)
    idx = list(range(6))
    for _ in range(300):
        nblocks = rng.integers(1, 5)
        assignment = rng.integers(0, nblocks, size=6)
        blocks = [sorted(np.nonzero(assignment == b)[0].tolist())
                  for b in range(nblocks)]
        blocks = [b for b in blocks if b]
        seq = ch.PartitionSequence(levels=(
            (tuple(idx),), tuple(tuple(b) for b in blocks), tuple((i,) for i in idx)))
        assert best <= ch.sequence_value(cls, fam, seq) + 1e-12


def _scan_exact(cls, family):
    """Reference search: the level-1 partitions scanned in enumeration order
    with per-cell diameters; a strict < keeps the first minimum."""
    idx = tuple(range(cls.size))
    if cls.size == 1:
        return 0.0, ((idx,),)
    memo = {}

    def cell_norm(level, cell):
        if (level, cell) not in memo:
            memo[level, cell] = family.norm(level, ch.cell_diameter(cls, cell),
                                            cls.weights)
        return memo[level, cell]

    d0 = cell_norm(0, idx)
    best_val, best_p1 = math.inf, None
    for p1 in ch.partitions_into_at_most(idx, 4):
        worst = 0.0
        for cell in p1:
            if len(cell) > 1:
                worst = max(worst, cell_norm(1, cell))
        val = math.sqrt(2.0) * (d0 + math.sqrt(2.0) * worst)
        if val < best_val:
            best_val, best_p1 = val, p1
    levels = ((idx,), best_p1)
    if any(len(c) > 1 for c in best_p1):
        levels += (tuple((i,) for i in idx),)
    return best_val, levels


def _tie_heavy_classes(rng, size, npts=10):
    """Random, duplicate-row/constant-row and integer-valued classes."""
    weights = rng.dirichlet(np.ones(npts))
    yield rng.normal(0, 1, (size, npts)), weights
    dup = rng.normal(0, 1, (size, npts))
    dup[-1] = dup[0]
    dup[size // 2] = 1.0
    yield dup, np.full(npts, 1.0 / npts)
    yield rng.integers(-2, 3, (size, npts)).astype(float), weights


BIT_FAMILIES = [
    pytest.param(ch.l2_family(), id="constant:l2"),
    pytest.param(ch.lr_family(4.0), id="constant:lr,r=4"),
    pytest.param(ch.schedule_family(gr.block_schedule(48, mx.exponential_profile(0.7))),
                 id="schedule:n=48"),
    pytest.param(ch.NormFamily(lambda level, rows, w: nm.dependence_norms(
        rows, w, 6, mx.polynomial_profile(1.0))), id="dependence:q=6"),
]


@pytest.mark.parametrize("fam", BIT_FAMILIES)
def test_exact_matches_scalar_scan(fam):
    # The subset-table search must return the very bits and witness of the
    # partition-by-partition scan, ties included.
    rng = np.random.default_rng(14)
    for size in range(1, 9):
        for table, weights in _tie_heavy_classes(rng, size):
            cls = ch.FunctionClass(table=table, weights=weights)
            value, witness = ch.complexity_exact(cls, fam)
            ref_value, ref_levels = _scan_exact(cls, fam)
            assert value == ref_value
            assert witness.levels == ref_levels


def _unmemoised_greedy(cls, family, depth):
    """Reference refinement: every norm evaluated afresh, pairs measured
    by |f_i - f_j|."""
    idx = list(range(cls.size))
    levels, current = [(tuple(idx),)], [idx]

    def dist(level, i, j):
        return family.norm(level, cls.table[i] - cls.table[j], cls.weights)

    for level in range(1, depth + 1):
        current = [list(c) for c in current]
        while len(current) < min(2 ** (2**level), cls.size):
            scored = [(family.norm(level, ch.cell_diameter(cls, c), cls.weights), k)
                      for k, c in enumerate(current) if len(c) > 1]
            if not scored:
                break
            _, k = max(scored)
            cell = current[k]
            si, sj = max(itertools.combinations(cell, 2), key=lambda p: dist(level, *p))
            a, b = [si], [sj]
            for x in cell:
                if x not in (si, sj):
                    (a if dist(level, x, si) <= dist(level, x, sj) else b).append(x)
            current[k] = a
            current.append(b)
        levels.append(tuple(sorted(tuple(sorted(c)) for c in current)))
        if all(len(c) == 1 for c in current):
            break
    return ch.sequence_value(cls, family, ch.PartitionSequence(levels=tuple(levels)))


@pytest.mark.parametrize("fam", BIT_FAMILIES)
def test_greedy_matches_unmemoised_refinement(fam):
    rng = np.random.default_rng(15)
    for size in (2, 3, 5, 8, 12):
        for table, weights in _tie_heavy_classes(rng, size):
            cls = ch.FunctionClass(table=table, weights=weights)
            expected = _unmemoised_greedy(cls, fam, depth=3)
            assert ch.complexity_greedy(cls, fam) == expected


def test_exact_refuses_large_class():
    rng = np.random.default_rng(3)
    with pytest.raises(ch.ChainingError):
        ch.complexity_exact(make_class(rng, 9), ch.l2_family())


@given(st.integers(2, 6), st.floats(0.5, 4.0))
@settings(max_examples=20, deadline=None)
def test_homogeneity(size, scale):
    rng = np.random.default_rng(size * 7)
    cls = make_class(rng, size)
    fam = ch.l2_family()
    base, _ = ch.complexity_exact(cls, fam)
    scaled, _ = ch.complexity_exact(ch.FunctionClass(table=scale * cls.table,
                                                      weights=cls.weights), fam)
    assert math.isclose(scaled, scale * base, rel_tol=1e-12)


def test_monotone_in_class():
    rng = np.random.default_rng(4)
    for fam in FAMILIES:
        big = make_class(rng, 6)
        small = ch.FunctionClass(table=big.table[[0, 2, 4]], weights=big.weights)
        v_small, _ = ch.complexity_exact(small, fam)
        v_big, _ = ch.complexity_exact(big, fam)
        assert v_small <= v_big + 1e-12


def test_greedy_upper_bounds_exact():
    rng = np.random.default_rng(5)
    for t in range(20):
        cls = make_class(rng, 8)
        fam = FAMILIES[t % 2]
        exact, _ = ch.complexity_exact(cls, fam)
        assert ch.complexity_greedy(cls, fam) >= exact


def test_schedule_family_levels_decrease():
    sched = gr.block_schedule(384, mx.polynomial_profile(0.6))
    fam = ch.schedule_family(sched)
    rng = np.random.default_rng(6)
    vec = np.abs(rng.normal(0, 1, 16))
    w = rng.dirichlet(np.ones(16))
    norms = [fam.norm(level, vec, w) for level in range(len(sched.q_seq) + 1)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_norm_family_seminorm_spot_checks():
    rng = np.random.default_rng(7)
    w = rng.dirichlet(np.ones(12))
    for fam in FAMILIES + [ch.schedule_family(
            gr.block_schedule(96, mx.exponential_profile(0.7)))]:
        x = np.abs(rng.normal(0, 1, 12))
        y = np.abs(rng.normal(0, 1, 12))
        assert fam.norm(1, np.zeros(12), w) == 0.0
        assert math.isclose(fam.norm(1, 2.5 * x, w), 2.5 * fam.norm(1, x, w),
                            rel_tol=1e-12)
        assert fam.norm(1, x + y, w) <= fam.norm(1, x, w) + fam.norm(1, y, w) + 1e-12


def test_chain_identity_exact_cases():
    rng = np.random.default_rng(10)
    cls = make_class(rng, 4)
    idx = [0, 1, 2, 3]
    seq = ch.PartitionSequence(levels=(
        (tuple(idx),), ((0, 1), (2, 3)), tuple((i,) for i in idx)))
    prof = mx.exponential_profile(0.8)
    # Same member in both roles: the identity reduces to zero equals zero.
    dec = ch.chain_decomposition(cls, 2, 2, seq, prof, 96)
    assert dec.residual < 1e-15
    dec = ch.chain_decomposition(cls, 3, 0, seq, prof, 96)
    assert dec.residual < 1e-12
    assert np.all(dec.stop_index >= 1)  # level-zero operator never fires


def test_chain_identity_binding_thresholds():
    rng = np.random.default_rng(11)
    npts = 16
    table = rng.normal(0, 1, (4, npts))
    table[:, 3] *= 60.0  # rare large gap
    weights = rng.dirichlet(np.full(npts, 0.05))
    cls = ch.FunctionClass(table=table, weights=weights)
    seq = ch.PartitionSequence(levels=(
        ((0, 1, 2, 3),), ((0, 1), (2, 3)), ((0,), (1,), (2,), (3,))))
    found = False
    for n in (6, 12, 36):
        dec = ch.chain_decomposition(cls, 1, 2, seq, mx.polynomial_profile(0.5), n)
        assert dec.residual < 1e-12
        found = found or dec.binding
    assert found


def test_chain_requires_separated_partitions():
    rng = np.random.default_rng(12)
    cls = make_class(rng, 3)
    seq = ch.PartitionSequence(levels=(((0, 1, 2),),))
    with pytest.raises(ch.ChainingError):
        ch.chain_decomposition(cls, 0, 1, seq, mx.iid_profile(), 12)


def test_two_member_chain_single_link():
    # When no threshold binds, the chain collapses to the one telescoping
    # link between the pair.
    cls = ch.FunctionClass(table=np.array([[0.2, -0.1, 0.4], [0.3, 0.1, -0.2]]),
                           weights=np.array([0.3, 0.3, 0.4]))
    seq = ch.PartitionSequence(levels=(((0, 1),), ((0,), (1,))))
    dec = ch.chain_decomposition(cls, 0, 1, seq, mx.iid_profile(), 746496)
    assert not dec.binding
    assert np.allclose(dec.deltas[0], cls.table[0] - cls.table[1])
    assert dec.residual < 1e-15


def test_center_offset_dominated_by_diameter():
    # The gap between a member and its cell center never exceeds the cell
    # diameter at any level.
    rng = np.random.default_rng(13)
    for _ in range(20):
        size = int(rng.integers(2, 7))
        cls = make_class(rng, size)
        idx = list(range(size))
        blocks = [sorted(b.tolist()) for b in
                  np.array_split(rng.permutation(idx),
                                 int(rng.integers(1, min(5, size + 1))))
                  if b.size]
        seq = ch.PartitionSequence(levels=(
            (tuple(idx),), tuple(tuple(b) for b in blocks), tuple((i,) for i in idx)))
        f = int(rng.integers(size))
        dec = ch.chain_decomposition(cls, f, int(rng.integers(size)), seq,
                                     mx.exponential_profile(0.7), 96)
        for level in range(1, seq.depth + 1):
            diam = ch.cell_diameter(cls, seq.cell_of(level, f))
            assert np.all(np.abs(dec.xis[level]) <= diam + 1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_function_class_rejects_non_finite(bad):
    table = np.array([[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ch.ChainingError, match="finite"):
        ch.FunctionClass(table=np.where(table == 2.0, bad, table),
                         weights=np.array([0.5, 0.5]))
    with pytest.raises(ch.ChainingError, match="finite"):
        ch.FunctionClass(table=table, weights=np.array([bad, 0.5]))


@pytest.mark.parametrize("family", FAMILIES + [
    ch.schedule_family(gr.block_schedule(48, mx.polynomial_profile(1.0)))],
    ids=["constant:l2", "constant:lr,r=4", "schedule:n=48"])
def test_norms_is_the_batched_norm(family):
    rng = np.random.default_rng(8)
    rows = rng.normal(0, 1, (7, 12))
    rows[3] = 0.0
    w = rng.dirichlet(np.ones(12))
    for level in (0, 1, 2):
        got = family.norms(level, rows, w)
        assert got.tolist() == [family.norm(level, row, w) for row in rows]
        assert got[3] == 0.0


def _scalar_l2(v, w):
    """The former per-row l2 form."""
    return math.sqrt(float((w * v * v).sum()))


def _scalar_lr(r):
    """The former per-row lr form."""
    return lambda v, w: float((w * v**r).sum() ** (1.0 / r))


@pytest.mark.parametrize("family, scalar", [
    pytest.param(ch.l2_family(), _scalar_l2, id="constant:l2")]
    + [pytest.param(ch.lr_family(r), _scalar_lr(r), id=f"constant:lr,r={r:g}")
       for r in (1.0, 2.5, 3.0, 4.0, 7.3)])
@pytest.mark.parametrize("npts", [1, 7, 24, 150])
def test_constant_families_match_the_scalar_forms(family, scalar, npts):
    # Every row of one batched call carries the bits of the per-row form.
    rng = np.random.default_rng(npts)
    rows = rng.normal(0, 1, (9, npts)) * rng.exponential(1.0, (9, 1))
    rows[4] = 0.0
    w = rng.dirichlet(np.ones(npts))
    got = family.norms(1, rows, w)
    want = np.array([scalar(v, w) for v in np.abs(rows)])
    assert np.array_equal(got, want)
    assert got[4] == 0.0
    assert np.array_equal(family.norms(0, np.zeros((3, npts)), w), np.zeros(3))


@pytest.mark.parametrize("size", range(2, 9))
def test_cached_level1_cells_are_the_multi_member_masks(size):
    parts = tuple(ch.partitions_into_at_most(range(size), ch.LEVEL1_CAP))
    masks, cells = ch._cell_masks(size)
    # One row per partition, in the generator's order, so argmin's first
    # minimum is the generator's first minimum.
    assert masks.shape == (len(parts), ch.LEVEL1_CAP)
    for row, part in zip(masks.tolist(), parts):
        cells_of = [sum(1 << i for i in cell) for cell in part]
        assert row == cells_of + [0] * (ch.LEVEL1_CAP - len(part))
    unique = np.unique(masks)
    assert np.array_equal(cells, unique[(unique & (unique - 1)) != 0])
    assert not (masks.flags.writeable or cells.flags.writeable)
    with pytest.raises(ValueError):
        cells[0] = 0
