"""Atomizing insertion/removal blocks and applying them to the Morse state."""

import copy

import pytest

from conftest import (build_simplicial, cell_records, full_triangle,
                      grow_records, is_acyclic_matching, make_rng,
                      random_complex)
from zzmorse.cells import Complex, chain_addmul, field_inv, simplex_facets
from zzmorse.errors import InvalidOp, NotRemovable
from zzmorse.kernel import run_stream
from zzmorse.morse import Matching, coreduce, morse_boundary
from zzmorse.oracle import betti_numbers
from zzmorse.stream import (
    InsertCritical,
    InsertPair,
    KernelInsert,
    KernelUnpair,
    MorseState,
    RemoveCritical,
    RemovePair,
    Split,
    apply_atomic,
    atomize_backward,
    atomize_forward,
)

TRIANGLE_RECORDS = {
    0: (0, {}),            # v1
    1: (0, {}),            # v2
    2: (0, {}),            # v3
    3: (1, {0: 1, 1: 1}),  # e12
    4: (1, {1: 1, 2: 1}),  # e23
    5: (1, {0: 1, 2: 1}),  # e13
    6: (2, {3: 1, 4: 1, 5: 1}),
}


def triangle_matching():
    m = Matching()
    m.add_critical(0)
    m.add_pair(1, 3)
    m.add_pair(2, 4)
    m.add_pair(5, 6)
    return m


def assert_prefix_closed(records, ops):
    present = set()
    for op in ops:
        cells = [op.cell] if isinstance(op, InsertCritical) else [op.tau, op.sigma]
        for cell in cells:
            for facet in records[cell][1]:
                assert facet in present or facet not in records
            present.add(cell)
    assert present == set(records)


def triangle_state(p=2):
    cx = full_triangle(p)
    ids = cx.simplex_ids
    m = Matching()
    m.add_critical(ids[(1,)])
    m.add_pair(ids[(2,)], ids[(1, 2)])
    m.add_pair(ids[(3,)], ids[(2, 3)])
    m.add_pair(ids[(1, 3)], ids[(1, 2, 3)])
    return cx, m, ids


# -- forward atomization -------------------------------------------------------

def test_atomize_forward_triangle():
    ops = atomize_forward(TRIANGLE_RECORDS, triangle_matching())
    assert len(ops) == 4
    assert sum(isinstance(o, InsertPair) for o in ops) == 3
    assert ops[0] == InsertCritical(0, 0, {})
    assert_prefix_closed(TRIANGLE_RECORDS, ops)


def test_atomize_forward_empty():
    assert atomize_forward({}, Matching()) == []


@pytest.mark.parametrize("seed", range(10))
def test_atomize_forward_random_prefix_closed(seed):
    rng = make_rng(seed)
    p = rng.choice([2, 5])
    cx = random_complex(rng, p=p, n=6)
    records = grow_records(rng, cx, rng.randint(1, 8))
    m = coreduce(records)
    ops = atomize_forward(records, m)
    assert_prefix_closed(records, ops)


def test_atomize_forward_goes_by_level():
    # level d: the critical d-cells by id, then the pairs with a d-dimensional
    # queue cell in the order coreduce formed them
    rng = make_rng(5)
    for _ in range(50):
        cx = random_complex(rng, p=5, n=rng.randint(0, 6))
        records = grow_records(rng, cx, rng.randint(1, 12))
        m = coreduce(records)
        ops = atomize_forward(records, m)
        expected = []
        for d in sorted({dim for dim, _ in records.values()}):
            expected += [c for c in sorted(m.critical) if records[c][0] == d]
            expected += [(t, s) for t, s in m.pair_up.items()
                         if records[t][0] == d]
        assert [op.cell if isinstance(op, InsertCritical) else (op.tau, op.sigma)
                for op in ops] == expected
        assert_prefix_closed(records, ops)

        everything = Matching()
        for cell in records:
            everything.add_critical(cell)
        assert [op.cell for op in atomize_forward(records, everything)] == \
            sorted(records, key=lambda c: (records[c][0], c))


# -- backward atomization --------------------------------------------------------

def test_atomize_backward_latest_insertion_first():
    rng = make_rng(6)
    for _ in range(30):
        cx = Complex(p=2)
        state = MorseState(cx, Matching())
        records = grow_records(rng, cx, rng.randint(1, 12))
        for op in atomize_forward(records, coreduce(records)):
            apply_atomic(state, op)
        block = _removable_subset(rng, cx)
        ops = atomize_backward(block, state)
        leaders = [op.cell if isinstance(op, RemoveCritical) else op.sigma
                   for op in ops]
        seqs = [cx.seq[c] for c in leaders]
        assert seqs == sorted(seqs, reverse=True)
        for op in ops:
            apply_atomic(state, op)
        assert not block & set(cx.dims)


def test_atomize_backward_unpaired():
    cx, m, ids = triangle_state()
    state = MorseState(cx, m)
    t = ids[(1, 2, 3)]
    assert atomize_backward({t}, state) == [Split(ids[(1, 3)], t),
                                            RemoveCritical(t)]


def test_atomize_backward_pair():
    cx, m, ids = triangle_state()
    state = MorseState(cx, m)
    t, e13 = ids[(1, 2, 3)], ids[(1, 3)]
    assert atomize_backward({t, e13}, state) == [RemovePair(e13, t)]


def test_atomize_backward_critical_vertex():
    cx = Complex()
    v = cx.insert_cell(0, {})
    m = Matching()
    m.add_critical(v)
    assert atomize_backward({v}, MorseState(cx, m)) == [RemoveCritical(v)]


def triangle_blocks():
    faces = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    return [("F", [(s, len(s) - 1, simplex_facets(s)) for s in faces])]


def test_atomize_backward_not_removable():
    # the door refuses the block before any op, naming the caller's ids
    blocks = triangle_blocks() + [("B", [(1, 2)])]
    with pytest.raises(NotRemovable,
                       match=r"cell \(1, 2\) has a cofacet \(1, 2, 3\) outside"):
        run_stream(blocks)


def test_atomize_backward_queue_without_king():
    # Once the triangle is gone, two vertices are queue cells of edges.
    # Every block taking a vertex and one of its edges leaves the other
    # edge behind, a king among them; the door refuses each one.
    seen = []

    def observe(state, matrix, op):
        queues = state.matching.pair_up
        seen.append(sum(state.complex.dims[t] == 0 for t in queues))

    start = triangle_blocks() + [("B", [(1, 2, 3)])]
    edges = [(1, 2), (1, 3), (2, 3)]
    for v in (1, 2, 3):
        mine = [e for e in edges if v in e]
        for gone, kept in (mine, mine[::-1]):
            with pytest.raises(NotRemovable, match=r"cell \(%d,\) has a "
                               r"cofacet \(%d, %d\)" % ((v,) + kept)):
                run_stream(start + [("B", [(v,), gone])], observer=observe)
    assert seen[-1] == 2
    # with the king included the same cells decompose fine
    rest = [("B", [(3,), (1, 3), (2, 3)]), ("B", [(1, 2), (1,), (2,)])]
    assert run_stream(start + rest)[0] == [(0, 1, 3), (1, 2, 2)]


def test_atomize_backward_never_splits_inner_pairs():
    rng = make_rng(42)
    for _ in range(10):
        cx = random_complex(rng, p=2, n=10)
        m = coreduce(cell_records(cx))
        ops = atomize_backward(set(cx.dims), MorseState(cx, m))
        assert not any(isinstance(o, Split) for o in ops)
        removed = set()
        for op in ops:
            if isinstance(op, RemovePair):
                removed |= {op.tau, op.sigma}
            else:
                removed.add(op.cell)
        assert removed == set(cx.dims)


# -- applying atomic ops ---------------------------------------------------------

def test_apply_forward_block_from_empty():
    cx = Complex(p=2)
    state = MorseState(cx, Matching(), validate=True)
    records = {}
    for cell, (dim, bnd) in sorted(TRIANGLE_RECORDS.items()):
        assert cx.fresh_id() == cell
        records[cell] = (dim, bnd)
    block = coreduce(records)
    updates = [apply_atomic(state, op) for op in atomize_forward(records, block)]
    assert len(cx) == 7
    assert is_acyclic_matching(cx, state.matching)
    inserts = [u for u in updates if isinstance(u, KernelInsert)]
    assert len(inserts) == len(block.critical)
    assert betti_numbers({c: (cx.dims[c], cx.facets[c]) for c in cx.dims}) == [1]


def test_remove_unpaired_circle_fixture():
    cx = build_simplicial([(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)])
    ids = cx.simplex_ids
    m = Matching()
    m.add_critical(ids[(1,)])
    m.add_critical(ids[(1, 3)])
    m.add_pair(ids[(2,)], ids[(1, 2)])
    m.add_pair(ids[(3,)], ids[(2, 3)])
    state = MorseState(cx, m)
    v1, v3, e13, e23 = ids[(1,)], ids[(3,)], ids[(1, 3)], ids[(2, 3)]

    update = apply_atomic(state, Split(v3, e23))
    assert isinstance(update, KernelUnpair)
    assert update.tau == v3 and update.sigma == e23
    assert update.sigma_boundary == {v1: 1, v3: 1}
    assert update.tau_cofacets == {e13: 1, e23: 1}
    assert update.sigma_boundary[v3] == cx.facets[e23][v3] == 1
    assert m.critical == {v1, e13, v3, e23}
    assert e23 in cx.dims  # a split leaves the complex as it is
    assert apply_atomic(state, RemoveCritical(e23)) == RemoveCritical(e23)
    assert m.critical == {v1, e13, v3}
    assert e23 not in cx.dims
    # the surviving critical edge now closes up on v1 + v3
    assert morse_boundary(cx, m, e13) == {v1: 1, v3: 1}


def test_apply_errors():
    cx, m, ids = triangle_state()
    state = MorseState(cx, m)
    before = copy.deepcopy((cx.facets, cx.cofacets, m.critical, m.pair_up))
    with pytest.raises(NotRemovable):
        apply_atomic(state, RemoveCritical(ids[(1,)]))  # critical but not maximal
    assert (cx.facets, cx.cofacets, m.critical, m.pair_up) == before
    with pytest.raises(InvalidOp):
        apply_atomic(state, RemovePair(ids[(2,)], ids[(2, 3)]))  # not a pair
    with pytest.raises(InvalidOp):
        apply_atomic(state, Split(ids[(2,)], ids[(1, 2, 3)]))  # wrong tau


def test_remove_pair_order_enforced():
    cx = build_simplicial([(1,), (2,), (1, 2)])
    ids = cx.simplex_ids
    m = Matching()
    m.add_critical(ids[(1,)])
    m.add_pair(ids[(2,)], ids[(1, 2)])
    state = MorseState(cx, m)
    apply_atomic(state, RemovePair(ids[(2,)], ids[(1, 2)]))
    assert len(cx) == 1 and ids[(1,)] in cx.dims


def test_remove_pair_error_leaves_state_unchanged():
    # after the triangle leaves, the pair (3,)-(2,3) holds seqs 2 and 5, so
    # descending seq emits it before (1,3), a cofacet of its queue cell
    cx, m, ids = triangle_state()
    state = MorseState(cx, m)
    for op in atomize_backward({ids[(1, 2, 3)]}, state):
        apply_atomic(state, op)
    morse_boundary(cx, m, ids[(1, 3)], memo=state.flow_memo)
    assert state.flow_memo
    ops = atomize_backward({ids[(3,)], ids[(2, 3)], ids[(1, 3)]}, state)
    assert ops == [RemovePair(ids[(3,)], ids[(2, 3)]),
                   RemoveCritical(ids[(1, 3)])]

    def snapshot():
        return copy.deepcopy((cx.dims, cx.facets, cx.cofacets, cx.seq,
                              m.critical, m.pair_up, m.pair_down,
                              state.flow_memo))

    before = snapshot()
    with pytest.raises(InvalidOp, match="queue cell"):
        apply_atomic(state, ops[0])
    assert snapshot() == before


# -- the boundary-update identity -------------------------------------------------

def update_formula(old, correction, scale, sigma_boundary, p):
    expected = dict(old)
    chain_addmul(expected, sigma_boundary, field_inv(scale, p) * correction, p)
    return expected


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("p", [2, 5])
def test_boundary_update_identity(seed, p):
    rng = make_rng(10_000 + 100 * p + seed)
    cx = random_complex(rng, p=p, n=rng.randint(10, 40))
    m = coreduce(cell_records(cx))
    pairs = [(tau, sigma) for tau, sigma in m.pair_up.items()
             if not cx.cofacets[sigma]]
    if not pairs:
        return
    tau, sigma = pairs[rng.randrange(len(pairs))]
    before = {nu: morse_boundary(cx, m, nu) for nu in m.critical}
    sdim = cx.dims[sigma]
    incidence = cx.facets[sigma][tau]

    state = MorseState(cx, m)
    update = apply_atomic(state, Split(tau, sigma))
    apply_atomic(state, RemoveCritical(sigma))
    for nu, old in before.items():
        new = morse_boundary(cx, m, nu)
        if cx.dims[nu] != sdim:
            assert new == old
        else:
            expected = update_formula(old, update.tau_cofacets.get(nu, 0),
                                    incidence,
                                    update.sigma_boundary, p)
            assert new == expected


# -- round trips and invariant preservation ----------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_block_round_trip(seed):
    rng = make_rng(20_000 + seed)
    p = rng.choice([2, 5])
    cx = random_complex(rng, p=p, n=rng.randint(0, 8))
    base_matching = coreduce(cell_records(cx))
    base_cells = set(cx.dims)
    state = MorseState(cx, base_matching)

    records = grow_records(rng, cx, rng.randint(1, 8))
    block = coreduce(records)
    for op in atomize_forward(records, block):
        apply_atomic(state, op)
    assert set(cx.dims) == base_cells | set(records)
    assert is_acyclic_matching(cx, state.matching)

    for op in atomize_backward(set(records), state):
        assert not isinstance(op, Split) or op.tau in base_cells
        apply_atomic(state, op)
    assert set(cx.dims) == base_cells


@pytest.mark.parametrize("seed", range(8))
def test_betti_preserved_after_every_atomic_op(seed):
    rng = make_rng(30_000 + seed)
    p = rng.choice([2, 5])
    cx = Complex(p=p)
    state = MorseState(cx, Matching(), validate=True)

    def check():
        full = {c: (cx.dims[c], cx.facets[c]) for c in cx.dims}
        reduced = {nu: (cx.dims[nu], morse_boundary(cx, state.matching, nu))
                   for nu in state.matching.critical}
        assert betti_numbers(reduced, p) == betti_numbers(full, p)
        assert len(state.matching) == len(cx)

    for _ in range(4):
        records = grow_records(rng, cx, rng.randint(1, 6))
        block = coreduce(records)
        for op in atomize_forward(records, block):
            apply_atomic(state, op)
            check()
        removable = _removable_subset(rng, cx)
        for op in atomize_backward(removable, state):
            apply_atomic(state, op)
            check()


def _removable_subset(rng, cx):
    """A random nonempty subset closed under cofacets.

    Cofacet closure also keeps every queue cell with its king, since the king
    is one of its cofacets.
    """
    cells = sorted(cx.dims)
    take = set()
    for cell in rng.sample(cells, rng.randint(1, len(cells))):
        stack = [cell]
        while stack:
            c = stack.pop()
            if c in take:
                continue
            take.add(c)
            stack.extend(cx.cofacets[c])
    return take
