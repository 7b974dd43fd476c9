"""The downward-flow memo that MorseState keeps across a whole stream.

Every entry must equal the flow computed from scratch, for live cells only,
after every atomic operation; an unpair must invalidate the entries that run
through the split pair, and only those; and a pre-filled memo must not hide
a cyclic matching.
"""

import pytest

from audits import (BrokenInvariant, Shadow, audited, check_reads,
                    memo_auditor)
from conftest import build_simplicial, insert_block
from zzmorse.cells import Complex
from zzmorse.errors import CyclicMatching
from zzmorse.generators import (circle_points, oscillating_rips_stream,
                                random_block_stream)
from zzmorse.kernel import run_stream
from zzmorse.morse import Matching, _flow, morse_boundary
from zzmorse.stream import BlockOp, ForwardCell, Split


@pytest.mark.parametrize("p", [2, 5])
def test_memo_matches_fresh_flows_on_random_streams(p):
    seen = dict(ops=0, entries=0, unpairs=0)
    audit = memo_auditor(seen)
    for seed in range(120):
        blocks = random_block_stream(seed, p=p)
        run_stream(blocks, p=p, observer=audit)
    assert seen["unpairs"] > 0 and seen["entries"] > 0


def test_memo_matches_fresh_flows_on_rips_stream():
    seen = dict(ops=0, entries=0, unpairs=0)
    blocks, _ = oscillating_rips_stream(circle_points(14, seed=2), 4.0, 6.0)
    run_stream(blocks, observer=memo_auditor(seen))
    assert seen["unpairs"] > 0 and seen["entries"] > 0


def path_stream(p):
    """A stream whose unpair changes the flow of a cell it does not touch.

    Block 1 matches v0 critical, (v1, e01) and (v2, e12); block 2's critical
    edge e02 memoizes v2's flow as running through v1 to v0.  Block 3
    removes e01, splitting the pair (v1, e01): v1 turns critical, and v2
    now flows to v1.  Block 4 re-inserts an edge v0-v2, whose reduced
    boundary reads v2's flow.  A memo left as it was makes e01's own reduced
    boundary lose the pair incidence; one that drops only the entries of v1
    and e01 keeps v2's old entry, makes f02's boundary zero, and reports a
    loop in block 4 that does not exist.
    """
    neg = p - 1
    return [
        BlockOp("F", [ForwardCell("v0", 0, {}), ForwardCell("v1", 0, {}),
                      ForwardCell("v2", 0, {}),
                      ForwardCell("e01", 1, {"v0": neg, "v1": 1}),
                      ForwardCell("e12", 1, {"v1": neg, "v2": 1})]),
        BlockOp("F", [ForwardCell("e02", 1, {"v0": neg, "v2": 1})]),
        BlockOp("B", ["e02", "e01"]),
        BlockOp("F", [ForwardCell("f02", 1, {"v0": neg, "v2": 1})]),
        BlockOp("B", ["f02", "e12", "v0", "v1", "v2"]),
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_unpair_invalidates_flows_through_the_pair(p):
    blocks = path_stream(p)
    intervals, _ = run_stream(blocks, p=p)
    assert intervals == run_stream(blocks, p=p, morse=False)[0]
    # H1 lives only while e01, e12 and e02 close a loop; f02 closes none
    assert [iv for iv in intervals if iv.dim == 1] == [(1, 2, 2)]
    seen = dict(ops=0, entries=0, unpairs=0)
    run_stream(blocks, p=p, observer=memo_auditor(seen))
    assert seen["unpairs"] == 1


def test_unpair_invalidates_flows_under_validate():
    for p in (2, 3):
        blocks = path_stream(p)
        audit = audited(Shadow(), check_reads)
        assert (run_stream(blocks, p=p, validate=True, observer=audit)[0]
                == run_stream(blocks, p=p, morse=False)[0])


def branch_stream(p):
    """A stream whose split keeps one memo entry and drops one two pairs up.

    Block 1 matches a critical and pairs (b, ab), (c, bc), (d, cd) and
    (x, ax); block 2's critical edge dx memoizes the flows of d, c, b and x,
    all running to a.  Block 3 removes ab, splitting the pair (b, ab): d
    reaches b through the pairs of d and c, so the entries of b, c and d
    go, while x's path avoids the pair and its entry stays.  Block 4's edge
    y, from a to x, reads that entry.
    """
    neg = p - 1
    return [
        BlockOp("F", [ForwardCell(v, 0, {}) for v in "abcdx"] + [
            ForwardCell("ab", 1, {"a": neg, "b": 1}),
            ForwardCell("bc", 1, {"b": neg, "c": 1}),
            ForwardCell("cd", 1, {"c": neg, "d": 1}),
            ForwardCell("ax", 1, {"a": neg, "x": 1})]),
        BlockOp("F", [ForwardCell("dx", 1, {"d": neg, "x": 1})]),
        BlockOp("B", ["ab"]),
        BlockOp("F", [ForwardCell("y", 1, {"a": neg, "x": 1})]),
        BlockOp("B", ["y", "dx", "cd", "bc", "ax", "a", "b", "c", "d", "x"]),
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_split_drops_only_the_entries_it_spoils(p):
    blocks = branch_stream(p)
    assert run_stream(blocks, p=p)[0] == run_stream(blocks, p=p, morse=False)[0]
    seen = dict(ops=0, entries=0, unpairs=0)
    audit = memo_auditor(seen)
    kept = []

    def observe(state, matrix, op):
        audit(state, matrix, op)
        if isinstance(op, Split):
            kept.append(set(state.flow_memo))

    run_stream(blocks, p=p, observer=observe)
    # engine ids: a, b, c, d, x are 0-4; the split drops b, c and d (d two
    # pairs above b) and keeps x, whose entry a memo cleared would lose
    assert kept == [{4}]


def test_check_reads_names_a_stale_memo_entry():
    def spoil(state, matrix, op):
        for cell in state.flow_memo:
            state.flow_memo[cell] = {}

    # critical removals read no boundary, and the split that removes ab
    # drops the spoiled entries of b, c and d but keeps x's (internal id
    # 4); y's insertion is the first boundary read from a spoiled entry
    with pytest.raises(BrokenInvariant, match="stale memo entry for 4$"):
        run_stream(branch_stream(2), observer=audited(check_reads, spoil))


def cyclic_complex():
    cx = build_simplicial([(1,), (2,), (3,), (4,), (1, 2), (2, 3), (1, 3),
                           (1, 4)])
    ids = cx.simplex_ids
    m = Matching()
    m.add_pair(ids[(1,)], ids[(1, 2)])
    m.add_pair(ids[(2,)], ids[(2, 3)])
    m.add_pair(ids[(3,)], ids[(1, 3)])
    m.critical.add(ids[(4,)])
    m.critical.add(ids[(1, 4)])
    return cx, m, ids


def test_cyclic_matching_detected_with_prefilled_memo():
    cx, m, ids = cyclic_complex()
    v4 = ids[(4,)]
    memo = {v4: {v4: 1}}
    with pytest.raises(CyclicMatching):
        morse_boundary(cx, m, ids[(1, 4)], memo=memo)
    with pytest.raises(CyclicMatching):
        _flow(cx.facets, m.pair_up, m.critical, m.pair_down,
              {ids[(1,)]: 1}, cx.p, {v4: {v4: 1}})


def test_result_is_not_a_memo_value():
    # e's only facet is the queue cell v1, so its boundary is v1's flow
    cx = Complex()
    v0, v1, a, e = insert_block(cx, [(0, {}), (0, {}), (1, {0: 1, 1: 1}),
                                     (1, {1: 1})])
    m = Matching()
    m.critical.add(v0)
    m.critical.add(e)
    m.add_pair(v1, a)
    memo = {}
    morse_boundary(cx, m, e, memo=memo)[v0] = 0
    assert memo == {v1: {v0: 1}}
    assert morse_boundary(cx, m, e, memo=memo) == {v0: 1}
