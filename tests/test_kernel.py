"""End-to-end zigzag engine: frozen diagrams, kernel algebra, oracle equality."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import blocks_to_stream, make_rng, random_block_ops
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
from zzmorse.kernel import (insert_into_matrix, remove_from_matrix, run_stream,
                            unpair_in_matrix)
from zzmorse.matrix import HomologyMatrix
from zzmorse.oracle import block_diagram
from zzmorse.stream import BlockOp, ForwardCell, KernelUnpair

# -- helpers -----------------------------------------------------------------


def single_op_blocks(ops):
    return [[op] for op in ops]


def diagram(blocks, p=2, morse=True):
    intervals, _ = run_stream(blocks_to_stream(blocks), p=p, morse=morse)
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
    stream = blocks_to_stream(TRIANGLE_BLOCKS)
    _, met = run_stream(stream, p=2, morse=True, validate=True)
    assert met.raw_ops == 14
    assert met.reduced_ops == 6   # 1 critical insert + unpaired removal + 2 removes
    assert met.max_cells == 7
    assert met.max_critical == 2
    _, raw_met = run_stream(stream, p=2, morse=False, validate=True)
    assert raw_met.raw_ops == 14
    assert raw_met.reduced_ops == 14
    assert raw_met.max_critical == 7


def test_runs_are_deterministic():
    stream = blocks_to_stream(TRIANGLE_BLOCKS)
    assert run_stream(stream, p=2) == run_stream(stream, p=2)


def test_backward_cells_may_be_an_iterator():
    stream = blocks_to_stream(TRIANGLE_BLOCKS)
    lazy = [BlockOp(b.direction, iter(b.cells)) if b.direction == "B" else b
            for b in stream]
    assert run_stream(lazy, p=2) == run_stream(stream, p=2)


# -- kernel column algebra (white box) ----------------------------------------


def circle_no_morse_matrix():
    """Circle built cell by cell through the kernel, every cell critical."""
    m = HomologyMatrix(2)
    for seq, (cell, dim, bd) in enumerate([
            ("v1", 0, {}), ("v2", 0, {}), ("v3", 0, {}),
            ("e12", 1, {"v1": 1, "v2": 1}), ("e23", 1, {"v2": 1, "v3": 1})]):
        m.forward_insert(cell, dim, bd, 1, seq)
    return m


def test_insert_closing_edge_births_a_cycle():
    m = circle_no_morse_matrix()
    event = m.forward_insert("e13", 1, {"v1": 1, "v3": 1}, 2, 5)
    assert event is None
    assert m.cols["e13"].label == "F"
    assert m.cols["e13"].birth == (6, 2)
    assert m.f_counts == {0: 1, 1: 1}

    event = m.forward_insert("t123", 2, {"e12": 1, "e23": 1, "e13": 1}, 3, 6)
    assert event == (1, 2)
    assert m.f_counts == {0: 1}

    event = m.backward_remove("t123", 4)
    assert event is None
    assert m.f_counts == {0: 1, 1: 1}
    assert m.row_ops == 8


def test_unpair_inserts_the_pair_and_corrects_cycles():
    # Circle with pairs (v2,e12),(v3,e23); rows v1, e13; then the pair
    # (v3,e23) is unpaired: the e13 cycle column must pick up an e23 term.
    m = HomologyMatrix(2)
    m.forward_insert("v1", 0, {}, 1, 0)
    m.forward_insert("e13", 1, {}, 1, 5)
    touched = m.unpair_update("v3", "e23", {"v1": 1, "v3": 1},
                              {"e13": 1, "e23": 1}, 0, 3, 4)
    assert touched == 1
    assert m.row_ops == 4  # a split gives the matrix two new rows
    assert m.cols["e13"].chain == {"e13": 1, "e23": 1}
    assert m.cols["e13"].label == "F"
    assert m.cols["v3"].chain == {"v1": 1, "v3": 1}
    assert m.cols["v3"].label == "G"
    assert m.cols["v3"].partner == "e23"
    assert m.cols["e23"].chain == {"e23": 1}
    assert m.cols["e23"].label == "H"
    assert m.cols["e23"].partner == "v3"
    order = sorted(m.rowseq, key=m.rowseq.get)
    assert order == ["v1", "v3", "e23", "e13"]

    event = m.backward_remove("e23", 2)
    assert event == (1, 1)
    assert sorted(m.rowseq, key=m.rowseq.get) == ["v1", "v3", "e13"]
    assert m.cols["e13"].label == "H"
    assert m.cols["e13"].partner == "v3"
    assert m.cols["v3"].label == "G"


def test_insert_rejects_a_seq_not_above_every_earlier_one():
    m = HomologyMatrix(2)
    m.forward_insert("a", 0, {}, 1, 3)
    with pytest.raises(KernelError):
        m.forward_insert("b", 0, {}, 1, 3)
    m.backward_remove("a", 2)
    with pytest.raises(KernelError):
        m.forward_insert("b", 0, {}, 3, 2)
    assert len(m) == 0 and not m.rowseq
    assert m.row_ops == 2  # a refused insertion does not tick the clock
    m.forward_insert("b", 0, {}, 3, 4)
    assert m.rowseq == {"b": 4}


def test_unpair_rejects_a_pair_not_inserted_consecutively():
    m = HomologyMatrix(2)
    m.forward_insert("v1", 0, {}, 1, 0)
    m.forward_insert("e13", 1, {}, 1, 5)
    with pytest.raises(KernelError):
        m.unpair_update("v3", "e23", {"v1": 1, "v3": 1},
                        {"e13": 1, "e23": 1}, 0, 2, 4)
    with pytest.raises(KernelError):
        m.unpair_update("v1", "e23", {"v1": 1}, {"e13": 1, "e23": 1},
                        0, 0, 1)
    assert set(m.rowseq) == {"v1", "e13"}
    assert m.row_ops == 2


@pytest.mark.parametrize("incidence", [0, 2])
def test_unpair_with_zero_incidence_leaves_the_matrix_unchanged(incidence):
    m = HomologyMatrix(2)
    m.forward_insert("v1", 0, {}, 1, 0)
    m.forward_insert("e13", 1, {}, 1, 5)
    rows = dict(m.rowseq)
    chains = {slot: dict(col.chain) for slot, col in m.cols.items()}
    with pytest.raises(ZeroInverse):
        m.unpair_update("v3", "e23", {"v1": 1, "v3": incidence},
                        {"e13": 1, "e23": 1}, 0, 3, 4)
    assert m.rowseq == rows and set(m.occ) == set(rows)
    assert {slot: col.chain for slot, col in m.cols.items()} == chains
    assert m.row_ops == 2


def test_removal_pairs_the_birth_order_minimum():
    # Forward class (born in block 1) and backward class (born in block 4)
    # both meet the removed vertex; the backward one must die and the
    # survivor keep its forward birth with the blocker's decoupled chain.
    m = HomologyMatrix(2)
    m.forward_insert("a", 0, {}, 1, 0)
    m.forward_insert("b", 0, {}, 2, 1)
    m.forward_insert("ab", 1, {"a": 1, "b": 1}, 3, 2)  # kills b's class
    m.backward_remove("ab", 4)      # reopens a class born (-4, 4)
    assert m.cols["a"].birth == (1, 1) and m.cols["b"].birth == (-4, 4)
    event = m.backward_remove("a", 5)
    assert event == (0, 4)
    assert m.cols["b"].birth == (1, 1)
    assert m.cols["b"].chain == {"b": 1}


def test_errors_surface_through_the_wrappers():
    # The wrappers add no checks of their own: the kernel refuses an unknown
    # row and a zero pair incidence before it writes anything.
    m = HomologyMatrix(2)
    m.forward_insert("v", 0, {}, 1, 0)
    rows = dict(m.rowseq)
    chains = {slot: dict(col.chain) for slot, col in m.cols.items()}
    with pytest.raises(KernelError, match="'ghost' has no row"):
        remove_from_matrix(m, "ghost", 2)
    update = KernelUnpair("t", "s", 0, {"t": 2}, {}, 1, 2)
    with pytest.raises(ZeroInverse):
        unpair_in_matrix(m, update)
    assert m.rowseq == rows and set(m.occ) == set(rows)
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
    stream = blocks_to_stream(random_block_ops(make_rng(seed), p=p))
    expect = sorted(block_diagram(stream, p))
    morse_ivs, morse_met = run_stream(stream, p=p, morse=True, validate=True)
    raw_ivs, raw_met = run_stream(stream, p=p, morse=False, validate=True)
    assert sorted((i.dim, i.birth, i.death) for i in morse_ivs) == expect
    assert sorted((i.dim, i.birth, i.death) for i in raw_ivs) == expect
    assert morse_met.raw_ops == raw_met.raw_ops
    assert morse_met.reduced_ops <= morse_met.raw_ops
    assert morse_met.max_critical <= morse_met.max_cells
