"""End-to-end zigzag engine: frozen diagrams, kernel algebra, oracle equality."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from audits import check_matrix, cycle_counts
from conftest import make_rng
from zzmorse.cells import Complex
from zzmorse.errors import (
    BadParameters,
    BrokenBoundary,
    InvalidOp,
    KernelError,
    UnknownCell,
    ZeroInverse,
    ZigzagError,
)
from zzmorse.generators import random_block_stream
from zzmorse.kernel import (insert_into_matrix, remove_from_matrix, run_stream,
                            unpair_in_matrix)
from zzmorse.matrix import HomologyMatrix
from zzmorse.oracle import block_diagram
from zzmorse.stream import BlockOp, ForwardCell

# -- helpers -----------------------------------------------------------------


def op_stream(blocks):
    """The BlockOp stream written in this file's shorthand: blocks of
    ``("i", cell, dim, boundary)`` inserts or ``("r", cell)`` removals."""
    return [BlockOp("F", [ForwardCell(*op[1:]) for op in block])
            if block[0][0] == "i" else BlockOp("B", [op[1] for op in block])
            for block in blocks]


def single_op_blocks(ops):
    return [[op] for op in ops]


def diagram(blocks, p=2, morse=True):
    intervals, _ = run_stream(op_stream(blocks), p=p, morse=morse)
    return sorted((i.dim, i.birth, i.death) for i in intervals)


TRIANGLE = [("i", 1, 0, {}), ("i", 2, 0, {}), ("i", 3, 0, {}),
            ("i", 12, 1, {1: 1, 2: 1}), ("i", 23, 1, {2: 1, 3: 1}),
            ("i", 13, 1, {1: 1, 3: 1}),
            ("i", 123, 2, {12: 1, 23: 1, 13: 1})]

TRIANGLE_BLOCKS = [TRIANGLE, [("r", 123)],
                   [("r", 12), ("r", 23), ("r", 13),
                    ("r", 1), ("r", 2), ("r", 3)]]


# -- frozen streams ----------------------------------------------------------


@pytest.mark.parametrize("morse", [True, False])
def test_vertex_roundtrip(morse):
    blocks = [[("i", 0, 0, {})], [("r", 0)]]
    assert diagram(blocks, morse=morse) == [(0, 1, 1)]


@pytest.mark.parametrize("morse", [True, False])
def test_hexagon_one_block_in_one_block_out(morse):
    verts = [("i", k, 0, {}) for k in range(6)]
    edges = [("i", 10 + k, 1, {k: 1, (k + 1) % 6: 1}) for k in range(6)]
    blocks = [verts + edges,
              [("r", 10 + k) for k in range(6)] + [("r", k) for k in range(6)]]
    assert diagram(blocks, morse=morse) == [(0, 1, 1), (1, 1, 1)]


@pytest.mark.parametrize("morse", [True, False])
def test_filled_triangle_reopens_the_circle(morse):
    assert diagram(TRIANGLE_BLOCKS, morse=morse) == [(0, 1, 2), (1, 2, 2)]


# Two backward-born component classes entangled with one forward-born class:
# the pairing of later vertex removals depends on the whole teardown order.
ENTANGLED_PREFIX = [("i", 1, 0, {}), ("i", 2, 0, {}), ("i", 3, 1, {1: 1, 2: 1}),
                    ("i", 4, 0, {}), ("i", 5, 1, {1: 1, 4: 1}),
                    ("r", 3), ("r", 5)]

ENTANGLED_DIAGRAMS = {
    (1, 2, 4): [(0, 1, 9), (0, 2, 2), (0, 4, 4), (0, 6, 8), (0, 7, 7)],
    (1, 4, 2): [(0, 1, 9), (0, 2, 2), (0, 4, 4), (0, 6, 8), (0, 7, 7)],
    (2, 1, 4): [(0, 1, 9), (0, 2, 2), (0, 4, 4), (0, 6, 7), (0, 7, 8)],
    (2, 4, 1): [(0, 1, 9), (0, 2, 2), (0, 4, 4), (0, 6, 7), (0, 7, 8)],
    (4, 1, 2): [(0, 1, 9), (0, 2, 2), (0, 4, 4), (0, 6, 8), (0, 7, 7)],
    (4, 2, 1): [(0, 1, 9), (0, 2, 2), (0, 4, 4), (0, 6, 8), (0, 7, 7)],
}


@pytest.mark.parametrize("order", sorted(ENTANGLED_DIAGRAMS))
@pytest.mark.parametrize("morse", [True, False])
def test_entangled_births_across_teardown_orders(order, morse):
    ops = ENTANGLED_PREFIX + [("r", c) for c in order]
    assert diagram(single_op_blocks(ops), morse=morse) == ENTANGLED_DIAGRAMS[order]


# A 1-cell with four vertices in its boundary makes three cycle columns
# interact at once, so the survivors' representative chains matter.
WIDE_EDGE_PREFIX = [("i", 1, 0, {}), ("i", 2, 0, {}), ("i", 3, 0, {}),
                    ("i", 4, 0, {}),
                    ("i", 6, 1, {1: 1, 2: 1, 3: 1, 4: 1}), ("r", 6),
                    ("i", 8, 1, {3: 1, 4: 1})]

WIDE_EDGE_DIAGRAMS = {
    (1, 8, 2, 3, 4): [(0, 1, 9), (0, 2, 6), (0, 3, 11), (0, 4, 4),
                      (0, 6, 7), (0, 9, 10)],
    (1, 2, 8, 3, 4): [(0, 1, 8), (0, 2, 6), (0, 3, 11), (0, 4, 4),
                      (0, 6, 7), (0, 10, 10)],
    (2, 1, 8, 3, 4): [(0, 1, 8), (0, 2, 6), (0, 3, 11), (0, 4, 4),
                      (0, 6, 7), (0, 10, 10)],
}


@pytest.mark.parametrize("tail", sorted(WIDE_EDGE_DIAGRAMS))
@pytest.mark.parametrize("morse", [True, False])
def test_multi_column_death_survivors(tail, morse):
    ops = WIDE_EDGE_PREFIX + [("r", c) for c in tail]
    assert diagram(single_op_blocks(ops), morse=morse) == WIDE_EDGE_DIAGRAMS[tail]


@pytest.mark.parametrize("morse", [True, False])
def test_scalar_weights_mod_five(morse):
    ops = [("i", 5, 0, {}), ("i", 6, 0, {}), ("i", 7, 0, {}),
           ("i", 8, 1, {5: 1, 6: 3}), ("i", 9, 0, {}),
           ("i", 10, 1, {5: 2, 6: 3, 7: 4, 9: 2}), ("r", 10),
           ("i", 11, 1, {5: 1, 6: 1, 7: 3, 9: 1}),
           ("i", 12, 1, {5: 2, 6: 4, 7: 4, 9: 1}),
           ("r", 8), ("r", 12), ("r", 11),
           ("r", 6), ("r", 9), ("r", 7), ("r", 5)]
    expect = [(0, 1, 8), (0, 2, 3), (0, 3, 7), (0, 5, 5), (0, 7, 15),
              (0, 10, 14), (0, 11, 13), (0, 12, 12)]
    assert diagram(single_op_blocks(ops), p=5, morse=morse) == expect


# -- metrics -----------------------------------------------------------------


def test_triangle_metrics():
    stream = op_stream(TRIANGLE_BLOCKS)
    _, met = run_stream(stream, p=2, morse=True, validate=True)
    assert met.raw_ops == 14
    assert met.reduced_ops == 6   # 1 critical insert + unpaired removal + 2 removes
    assert met.max_cells == 7
    assert met.max_critical == 2
    _, raw_met = run_stream(stream, p=2, morse=False, validate=True)
    assert raw_met.raw_ops == 14
    assert raw_met.reduced_ops == 14
    assert raw_met.max_critical == 7


def test_size_metrics_are_sampled_after_each_block():
    # Block 3 splits a pair while two critical cells stand, so one op in it
    # sees 4 critical cells; Metrics reads the sizes only after each block.
    stream = [("F", [("a", 0, {}), ("b", 0, {}), ("c", 0, {}),
                     ("ab", 1, {"a": 1, "b": 1}), ("bc", 1, {"b": 1, "c": 1}),
                     ("ac", 1, {"a": 1, "c": 1}),
                     ("t", 2, {"ab": 1, "bc": 1, "ac": 1})]),
              ("B", ["t"]), ("B", ["ab", "bc", "ac"]), ("B", ["a", "b", "c"])]
    per_op = []
    _, met = run_stream(stream, observer=lambda state, matrix, op: per_op.append(
        len(state.matching.critical)))
    assert max(per_op) == 4
    assert (met.max_cells, met.max_critical) == (7, 3)


def test_runs_are_deterministic():
    stream = op_stream(TRIANGLE_BLOCKS)
    assert run_stream(stream, p=2) == run_stream(stream, p=2)


def test_backward_cells_may_be_an_iterator():
    stream = op_stream(TRIANGLE_BLOCKS)
    lazy = [BlockOp(b.direction, iter(b.cells)) if b.direction == "B" else b
            for b in stream]
    assert run_stream(lazy, p=2) == run_stream(stream, p=2)


# -- kernel column algebra (white box) ----------------------------------------
# The matrix reads row order from its complex's ``seq``; these tests own that
# dict and, for the cycle counts, a ``dims`` beside it, and write both as a
# complex would.


class Kernel(HomologyMatrix):
    """The kernel with the dimension map a complex would keep beside it."""

    def __init__(self, p):
        super().__init__(p, {})
        self.dims = {}


def counts(m):
    return cycle_counts(m, m.dims)


def enter(m, cell, dim, seq):
    """Put a cell into the complex mappings the tests read."""
    m.seq[cell], m.dims[cell] = seq, dim


def insert(m, cell, dim, bd, block, seq):
    enter(m, cell, dim, seq)
    return m.forward_insert(cell, bd, block)


def remove(m, cell, block):
    """The complex drops a cell before the kernel removes its row."""
    del m.seq[cell], m.dims[cell]
    return m.backward_remove(cell, block)


def circle_no_morse_matrix():
    """Circle built cell by cell through the kernel, every cell critical."""
    m = Kernel(2)
    for seq, (cell, dim, bd) in enumerate([
            ("v1", 0, {}), ("v2", 0, {}), ("v3", 0, {}),
            ("e12", 1, {"v1": 1, "v2": 1}), ("e23", 1, {"v2": 1, "v3": 1})]):
        insert(m, cell, dim, bd, 1, seq)
    return m


def test_insert_closing_edge_births_a_cycle():
    m = circle_no_morse_matrix()
    event = insert(m, "e13", 1, {"v1": 1, "v3": 1}, 2, 5)
    assert event is None
    assert m.cols["e13"].label == "F"
    assert m.cols["e13"].birth == (6, 2)
    assert counts(m) == {0: 1, 1: 1}

    event = insert(m, "t123", 2, {"e12": 1, "e23": 1, "e13": 1}, 3, 6)
    assert event == 2
    assert counts(m) == {0: 1}

    event = remove(m, "t123", 4)
    assert event is None
    assert counts(m) == {0: 1, 1: 1}
    assert m.row_ops == 8


def test_unpair_inserts_the_pair_and_corrects_cycles():
    # Circle with pairs (v2,e12),(v3,e23); rows v1, e13; then the pair
    # (v3,e23) is unpaired: the e13 cycle column must pick up an e23 term.
    m = Kernel(2)
    insert(m, "v1", 0, {}, 1, 0)
    insert(m, "e13", 1, {}, 1, 5)
    enter(m, "v3", 0, 3)
    enter(m, "e23", 1, 4)
    assert m.unpair_update("v3", "e23", {"v1": 1, "v3": 1},
                           {"e13": 1, "e23": 1}) is None
    assert m.row_ops == 4  # a split gives the matrix two new rows
    assert m.cols["e13"].chain == {"e13": 1, "e23": 1}
    assert m.cols["e13"].label == "F"
    assert m.cols["v3"].chain == {"v1": 1, "v3": 1}
    assert m.cols["v3"].label == "G"
    assert m.cols["v3"].partner == "e23"
    assert m.cols["e23"].chain == {"e23": 1}
    assert m.cols["e23"].label == "H"
    assert m.cols["e23"].partner == "v3"
    order = sorted(m.occ, key=m.seq.get)
    assert order == ["v1", "v3", "e23", "e13"]

    event = remove(m, "e23", 2)
    assert event == 1
    assert sorted(m.occ, key=m.seq.get) == ["v1", "v3", "e13"]
    assert m.cols["e13"].label == "H"
    assert m.cols["e13"].partner == "v3"
    assert m.cols["v3"].label == "G"


def test_insert_rejects_a_seq_not_above_every_earlier_one():
    m = Kernel(2)
    insert(m, "a", 0, {}, 1, 3)
    with pytest.raises(KernelError):
        insert(m, "b", 0, {}, 1, 3)
    remove(m, "a", 2)
    with pytest.raises(KernelError):
        insert(m, "b", 0, {}, 3, 2)
    assert len(m.cols) == 0 and not m.occ
    assert m.row_ops == 2  # a refused insertion does not tick the clock
    insert(m, "b", 0, {}, 3, 4)
    assert set(m.occ) == {"b"} and m.seq == {"b": 4}


def test_unpair_rejects_a_pair_not_inserted_consecutively():
    m = Kernel(2)
    insert(m, "v1", 0, {}, 1, 0)
    insert(m, "e13", 1, {}, 1, 5)
    enter(m, "v3", 0, 2)
    enter(m, "e23", 1, 4)
    with pytest.raises(KernelError):
        m.unpair_update("v3", "e23", {"v1": 1, "v3": 1},
                        {"e13": 1, "e23": 1})
    enter(m, "e23", 1, 1)
    with pytest.raises(KernelError):
        m.unpair_update("v1", "e23", {"v1": 1}, {"e13": 1, "e23": 1})
    assert set(m.occ) == {"v1", "e13"}
    assert m.row_ops == 2


@pytest.mark.parametrize("incidence", [0, 2])
def test_unpair_with_zero_incidence_leaves_the_matrix_unchanged(incidence):
    m = Kernel(2)
    insert(m, "v1", 0, {}, 1, 0)
    insert(m, "e13", 1, {}, 1, 5)
    enter(m, "v3", 0, 3)
    enter(m, "e23", 1, 4)
    rows = set(m.occ)
    chains = {slot: dict(col.chain) for slot, col in m.cols.items()}
    with pytest.raises(ZeroInverse):
        m.unpair_update("v3", "e23", {"v1": 1, "v3": incidence},
                        {"e13": 1, "e23": 1})
    assert set(m.occ) == rows
    assert {slot: col.chain for slot, col in m.cols.items()} == chains
    assert m.row_ops == 2


@pytest.mark.parametrize("call, message", [
    (lambda m: m.forward_insert("v1", {}, 2), "cell 'v1' already has a row"),
    (lambda m: m.forward_insert("ghost", {}, 2),
     "cell 'ghost' is not in the complex"),
    (lambda m: m.forward_insert("x", {"v3": 1}, 2),
     "boundary cell 'v3' has no row"),
    (lambda m: m.unpair_update("ghost", "e23", {"ghost": 1}, {}),
     "cell 'ghost' is not in the complex"),
    (lambda m: m.unpair_update("v3", "ghost", {"v3": 1}, {}),
     "cell 'ghost' is not in the complex"),
    (lambda m: m.unpair_update("v3", "e23", {"v3": 1, "x": 1}, {}),
     "chain cell 'x' has no row"),
    (lambda m: m.unpair_update("v3", "e23", {"v3": 1, "v6": 1}, {}),
     "boundary cell 'v6' sits above the spliced pair"),
    (lambda m: m.unpair_update("v3", "e23", {"v3": 1}, {"v1": 1}),
     "cofacet 'v1' sits below the spliced pair"),
])
def test_kernel_refusals_name_the_cell(call, message):
    # rows v1, e13, v6; the complex also holds v3, e23 and x, without rows
    m = Kernel(2)
    insert(m, "v1", 0, {}, 1, 0)
    insert(m, "e13", 1, {}, 1, 5)
    insert(m, "v6", 0, {}, 1, 6)
    enter(m, "v3", 0, 3)
    enter(m, "e23", 1, 4)
    enter(m, "x", 1, 7)
    chains = {slot: dict(col.chain) for slot, col in m.cols.items()}
    with pytest.raises(KernelError, match=message):
        call(m)
    assert set(m.occ) == {"v1", "e13", "v6"}
    assert {slot: col.chain for slot, col in m.cols.items()} == chains
    assert m.row_ops == 3


def test_removal_pairs_the_birth_order_minimum():
    # Forward class (born in block 1) and backward class (born in block 4)
    # both meet the removed vertex; the backward one must die and the
    # survivor keep its forward birth with the blocker's decoupled chain.
    m = Kernel(2)
    insert(m, "a", 0, {}, 1, 0)
    insert(m, "b", 0, {}, 2, 1)
    insert(m, "ab", 1, {"a": 1, "b": 1}, 3, 2)  # kills b's class
    remove(m, "ab", 4)      # reopens a class born (-4, 4)
    assert m.cols["a"].birth == (1, 1) and m.cols["b"].birth == (-4, 4)
    event = remove(m, "a", 5)
    assert event == 4
    assert m.cols["b"].birth == (1, 1)
    assert m.cols["b"].chain == {"b": 1}


@pytest.mark.parametrize("cell, message", [
    ("a", "a boundary column contains a removable cell"),
    ("b", "a boundary column leads at a maximal cell"),
])
def test_removal_refuses_a_row_a_boundary_column_holds(cell, message):
    # ab = a + b leaves a G column at b whose chain also holds a; the
    # refusal comes before the clock ticks or a blocker is eliminated
    m = Kernel(2)
    insert(m, "a", 0, {}, 1, 0)
    insert(m, "b", 0, {}, 1, 1)
    insert(m, "ab", 1, {"a": 1, "b": 1}, 1, 2)
    assert m.cols["b"].label == "G" and m.occ["a"] == {"a", "b"}
    before = snapshot(m)
    with pytest.raises(KernelError, match=message):
        remove(m, cell, 2)
    assert snapshot(m) == before


# -- the O(1) paths: an insertion with nothing to reduce, a removal with no
# blocker ----------------------------------------------------------------------


def snapshot(m):
    """Everything the kernel keeps, with columns as plain tuples."""
    return ({slot: (dict(col.chain), col.label, col.birth, col.partner)
             for slot, col in m.cols.items()},
            {cell: set(slots) for cell, slots in m.occ.items()},
            m.row_ops, m.last_seq)


def edge_matrix():
    """Vertices a, b and the edge ab, which kills a class, in block 1 (p = 5)."""
    m = Kernel(5)
    insert(m, "a", 0, {}, 1, 0)
    insert(m, "b", 0, {}, 1, 1)
    insert(m, "ab", 1, {"a": 1, "b": 4}, 1, 2)
    return m


@pytest.mark.parametrize("dim", [0, 1])
def test_empty_boundary_insertion_matches_the_general_path(dim):
    fast, general = edge_matrix(), edge_matrix()
    assert insert(fast, "c", dim, {}, 2, 3) is None
    # a live row with coefficient 0 mod p: _reduce drops it and reduces
    # nothing, so the general path makes the same new cycle
    assert insert(general, "c", dim, {"a": 5}, 2, 3) is None
    assert snapshot(fast) == snapshot(general)
    assert fast.cols["c"].chain == {"c": 1}
    assert fast.cols["c"].birth == (4, 2)
    assert fast.occ["c"] == {"c"} and fast.last_seq == 3
    assert counts(fast) == ({0: 2} if dim == 0 else {0: 1, 1: 1})


@pytest.mark.parametrize("cell, seq, message", [
    ("a", None, "cell 'a' already has a row"),
    ("c", 2, "seq 2 of 'c' is not above the last insertion's"),
    ("ghost", None, "cell 'ghost' is not in the complex"),
])
def test_empty_boundary_refusals_leave_the_matrix_unchanged(cell, seq, message):
    m = edge_matrix()
    if seq is not None:
        enter(m, cell, 0, seq)
    before = snapshot(m)
    with pytest.raises(KernelError, match=message):
        m.forward_insert(cell, {}, 2)
    assert snapshot(m) == before


def test_insertion_refuses_a_boundary_through_a_chain_column():
    m = edge_matrix()
    assert m.cols["ab"].label == "H"
    before = snapshot(m)
    with pytest.raises(KernelError, match="boundary is not a cycle in the "
                                          "reduced complex"):
        insert(m, "x", 2, {"ab": 1}, 2, 3)
    assert snapshot(m) == before


# a corrupted occurrence index: the row of a must hold exactly a's own slot
@pytest.mark.parametrize("corrupt, message", [
    (lambda occ: occ.update(a=set()), "cell 'a' still occurs in other columns"),
    (lambda occ: occ.update(a={"b"}), "cell 'a' still occurs in other columns"),
    (lambda occ: occ["a"].add("b"), "stale occurrence of 'a' in 'b'"),
], ids=["no slot", "another slot only", "a stale slot too"])
def test_removal_refuses_a_corrupt_occurrence_index(corrupt, message):
    m = Kernel(2)
    insert(m, "a", 0, {}, 1, 0)
    insert(m, "b", 0, {}, 1, 1)
    corrupt(m.occ)
    before = snapshot(m)
    with pytest.raises(KernelError, match=message):
        remove(m, "a", 2)
    assert snapshot(m) == before


def test_blocker_free_removal_of_a_cycle_returns_its_event():
    m = edge_matrix()
    insert(m, "c", 0, {}, 2, 3)
    assert m.occ["c"] == {"c"}  # no other column holds the row
    assert remove(m, "c", 3) == 2
    assert "c" not in m.cols and "c" not in m.occ
    assert counts(m) == {0: 1} and m.row_ops == 5


def test_blocker_free_removal_of_a_chain_column_reopens_its_partner():
    m = edge_matrix()
    col = m.cols["ab"]
    assert col.label == "H" and m.occ["ab"] == {"ab"}
    partner = col.partner
    assert remove(m, "ab", 2) is None
    reopened = m.cols[partner]
    assert (reopened.label, reopened.birth, reopened.partner) == \
        ("F", (-4, 2), None)
    assert counts(m) == {0: 2} and m.row_ops == 4
    check_matrix(m, {"a": {}, "b": {}}.__getitem__, m.dims)


def test_errors_surface_through_the_wrappers():
    # The hooked names are the kernel's own methods: the kernel refuses an
    # unknown row and a zero pair incidence before it writes anything.
    m = Kernel(2)
    insert(m, "v", 0, {}, 1, 0)
    enter(m, "t", 0, 1)
    enter(m, "s", 1, 2)
    rows = set(m.occ)
    chains = {slot: dict(col.chain) for slot, col in m.cols.items()}
    with pytest.raises(KernelError, match="'ghost' has no row"):
        remove_from_matrix(m, "ghost", 2)
    with pytest.raises(ZeroInverse):
        unpair_in_matrix(m, "t", "s", {"t": 2}, {})
    assert set(m.occ) == rows
    assert {slot: col.chain for slot, col in m.cols.items()} == chains
    assert m.row_ops == 1


def test_non_cycle_boundary_is_rejected():
    # 2-cell glued onto a single edge: its boundary is not a cycle in the
    # complex, which the kernel sees as a pairing-column hit and reports in
    # the caller's id.
    blocks = [BlockOp("F", [ForwardCell("v1", 0, {}), ForwardCell("v2", 0, {}),
                            ForwardCell("e", 1, {"v1": 1, "v2": 1}),
                            ForwardCell("bad", 2, {"e": 1})])]
    with pytest.raises(BrokenBoundary, match="cell 'bad' is not a cycle"):
        run_stream(blocks, p=2, morse=False)


@pytest.mark.parametrize("morse, validate, error, message", [
    (False, False, BrokenBoundary, "boundary of cell 'v' is not a cycle"),
    (False, True, BrokenBoundary, "boundary of cell 'v' is not a cycle"),
    (True, False, BrokenBoundary,
     "reduced boundary of cell 'v' was refused: no room"),
    (True, True, KernelError,
     "reduced boundary of cell 'v' was refused: no room"),
])
def test_a_kernel_refusal_names_the_boundary_it_saw(monkeypatch, morse,
                                                    validate, error, message):
    # Without Morse the kernel saw the record's own boundary, so the input is
    # blamed; with Morse it saw the reduced boundary, with the kernel's
    # reason, and after validate's door check the engine is at fault.
    def refuse(matrix, cell, boundary, block):
        raise KernelError("no room")

    monkeypatch.setattr("zzmorse.kernel.insert_into_matrix", refuse)
    blocks = [BlockOp("F", [ForwardCell("v", 0, {})]), BlockOp("B", ["v"])]
    with pytest.raises(ZigzagError) as info:
        run_stream(blocks, morse=morse, validate=validate)
    assert type(info.value) is error and str(info.value) == message


def test_non_prime_field_is_rejected():
    blocks = [BlockOp("F", [ForwardCell("v", 0, {})]), BlockOp("B", ["v"])]
    with pytest.raises(BadParameters):
        run_stream(blocks, p=4)
    for p in (1, 9):
        with pytest.raises(BadParameters):
            Complex(p=p)
    assert issubclass(KernelError, ZigzagError)


# -- differential against the oracle ------------------------------------------


@given(st.integers(0, 10 ** 9), st.sampled_from([2, 5]))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_engine_matches_oracle_on_random_streams(seed, p):
    stream = random_block_stream(make_rng(seed), p=p)
    expect = sorted(block_diagram(stream, p))
    morse_ivs, morse_met = run_stream(stream, p=p, morse=True, validate=True)
    raw_ivs, raw_met = run_stream(stream, p=p, morse=False, validate=True)
    assert sorted((i.dim, i.birth, i.death) for i in morse_ivs) == expect
    assert sorted((i.dim, i.birth, i.death) for i in raw_ivs) == expect
    assert morse_met.raw_ops == raw_met.raw_ops
    assert morse_met.reduced_ops <= morse_met.raw_ops
    assert morse_met.max_critical <= morse_met.max_cells
