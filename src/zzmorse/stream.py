"""Block-to-atomic decomposition of zigzag arrows over a Morse matching.

A zigzag filtration arrives as blocks: a forward block inserts a set of cells,
a backward block removes one.  Each block is matched (forward) or classified
against the standing matching (backward) and decomposed into atomic
operations.  Critical insertions and removals reach the persistence kernel;
paired cells come and go silently except when a removal splits a pair across
the block boundary, which triggers a boundary update in the reduced complex
before the cell leaves.
"""

import heapq
from collections import namedtuple

from .errors import (BrokenInvariant, CyclicMatching, InvalidOp, NotRemovable,
                     UnknownCell)
from .morse import morse_boundary, morse_coboundary

ForwardCell = namedtuple("ForwardCell", "cell dim boundary")
BlockOp = namedtuple("BlockOp", "direction cells")  # direction: "F" | "B"

InsertCritical = namedtuple("InsertCritical", "cell dim boundary")
InsertPair = namedtuple(
    "InsertPair", "tau sigma tau_dim tau_boundary sigma_dim sigma_boundary")
RemoveCritical = namedtuple("RemoveCritical", "cell")
RemovePair = namedtuple("RemovePair", "tau sigma")
RemoveUnpaired = namedtuple("RemoveUnpaired", "sigma tau")

KernelInsert = namedtuple("KernelInsert", "cell dim boundary seq")
KernelRemove = namedtuple("KernelRemove", "cell")
KernelUnpair = namedtuple(
    "KernelUnpair",
    "tau sigma tau_dim sigma_boundary tau_cofacets pair_incidence"
    " tau_seq sigma_seq",
)


class MorseState:
    """The streamed complex, its global matching, and its downward-flow memo.

    Nothing is staged here: insertion ops carry their own cell data.
    ``flow_memo`` (cell -> reduced chain, see ``morse._flow``) lives across
    blocks.  ``apply_atomic`` keeps it valid: insertions leave it alone,
    removals drop the removed cells' entries, and an unpair clears it.
    """

    def __init__(self, complex_, matching):
        self.complex = complex_
        self.matching = matching
        self.flow_memo = {}


# ---------------------------------------------------------------------------
# forward atomization
# ---------------------------------------------------------------------------

def atomize_forward(records, matching):
    """Order a matched insertion block into prefix-closed atomic operations.

    ``records`` maps each new cell to ``(dim, boundary)``; facets absent from
    the records are assumed to exist already.  Paired cells are emitted
    together, the queue cell first, once every outside facet of both is in.
    """
    unit_of = {}
    units = []
    for cell in records:
        if cell in matching.pair_down:
            if matching.pair_down[cell] not in records:
                raise UnknownCell("queue cell for %r missing from block" % (cell,))
            continue
        if cell in matching.pair_up:
            king = matching.pair_up[cell]
            if king not in records:
                raise UnknownCell("king %r missing from block" % (king,))
            members = (cell, king)
            op = InsertPair(cell, king, *records[cell], *records[king])
        else:
            members = (cell,)
            op = InsertCritical(cell, *records[cell])
        idx = len(units)
        units.append((members, op))
        for m in members:
            unit_of[m] = idx

    waiting = {}
    needs = []
    ready = []
    for idx, (members, op) in enumerate(units):
        deps = set()
        for m in members:
            for facet in records[m][1]:
                if facet in records and facet not in members:
                    deps.add(facet)
        needs.append(deps)
        for facet in deps:
            waiting.setdefault(facet, []).append(idx)
        if not deps:
            key = min((records[m][0], m) for m in members)
            heapq.heappush(ready, (key, idx))

    out = []
    emitted = 0
    while ready:
        _, idx = heapq.heappop(ready)
        members, op = units[idx]
        out.append(op)
        emitted += 1
        for m in members:
            for widx in waiting.get(m, ()):
                deps = needs[widx]
                deps.discard(m)
                if not deps:
                    key = min((records[w][0], w) for w in units[widx][0])
                    heapq.heappush(ready, (key, widx))
    if emitted != len(units):
        raise CyclicMatching("insertion block has no prefix-closed order")
    return out


# ---------------------------------------------------------------------------
# backward atomization
# ---------------------------------------------------------------------------

def atomize_backward(sigma_set, state):
    """Order a removal block into atomic operations, maximal cells first.

    Pairs lying inside the block leave together as RemovePair; a pair split
    by the block boundary (king inside, queue cell outside) leaves as
    RemoveUnpaired.  Preference among currently maximal cells is highest
    dimension, then lowest id.
    """
    cx = state.complex
    m = state.matching
    sigma_set = set(sigma_set)
    for cell in sigma_set:
        if cell not in cx.dims:
            raise UnknownCell(repr(cell))
        for cof in cx.cofacets[cell]:
            if cof not in sigma_set:
                raise NotRemovable(
                    "cell %r has a cofacet %r outside the block" % (cell, cof)
                )
        if cell in m.pair_up and m.pair_up[cell] not in sigma_set:
            raise NotRemovable(
                "queue cell %r leaves without its king" % (cell,)
            )

    remaining = set(sigma_set)
    count = {c: len(cx.cofacets[c]) for c in sigma_set}
    heap = [(-cx.dims[c], c) for c in sigma_set if count[c] == 0]
    heapq.heapify(heap)
    parked = {}  # queue cell -> its king, waiting for the queue cell to clear
    out = []

    def clear(cell):
        remaining.discard(cell)
        for facet in cx.facets[cell]:
            if facet in remaining:
                count[facet] -= 1
                if count[facet] == 0:
                    heapq.heappush(heap, (-cx.dims[facet], facet))
                if count[facet] == 1 and facet in parked:
                    heapq.heappush(heap, (-cx.dims[parked[facet]], parked.pop(facet)))

    while remaining:
        if not heap:
            raise NotRemovable("no maximal cell available; matching not acyclic?")
        _, cell = heapq.heappop(heap)
        if cell not in remaining or count[cell] != 0:
            continue
        if cell in m.pair_down:
            tau = m.pair_down[cell]
            if tau not in sigma_set:
                out.append(RemoveUnpaired(cell, tau))
                clear(cell)
            elif count[tau] == 1:
                out.append(RemovePair(tau, cell))
                clear(cell)
                clear(tau)
            else:
                parked[tau] = cell
        elif cell in m.pair_up:
            continue  # leaves with its king
        else:
            out.append(RemoveCritical(cell))
            clear(cell)
    return out


# ---------------------------------------------------------------------------
# applying atomic operations
# ---------------------------------------------------------------------------

def _reduced_boundary(state, cell):
    """Morse boundary of a critical cell through the state's flow memo.

    In validate mode the result is recomputed without the memo and must
    agree, so a stale entry shows up at the first boundary it would corrupt.
    """
    cx = state.complex
    bnd = morse_boundary(cx, state.matching, cell, memo=state.flow_memo)
    if cx.validate and bnd != morse_boundary(cx, state.matching, cell):
        raise BrokenInvariant("flow memo gives a stale boundary for %r" % (cell,))
    return bnd


def apply_atomic(state, op):
    """Mutate the Morse state by one atomic op; return the kernel's view of it.

    Insertions carry their own cell data.  The return value is a
    KernelInsert/KernelRemove/KernelUnpair, or None for pair operations,
    which are invisible to the reduced complex.
    """
    cx = state.complex
    m = state.matching

    if isinstance(op, InsertCritical):
        cx.insert_cell(op.dim, op.boundary, cell=op.cell)
        m.add_critical(op.cell)
        return KernelInsert(op.cell, op.dim, _reduced_boundary(state, op.cell),
                            cx.seq[op.cell])

    if isinstance(op, InsertPair):
        if (op.sigma_dim != op.tau_dim + 1
                or not op.sigma_boundary.get(op.tau, 0) % cx.p):
            raise InvalidOp("cells %r, %r do not form a pair" % (op.tau, op.sigma))
        cx.insert_cell(op.tau_dim, op.tau_boundary, cell=op.tau)
        cx.insert_cell(op.sigma_dim, op.sigma_boundary, cell=op.sigma)
        m.add_pair(op.tau, op.sigma)
        return None

    if isinstance(op, RemoveCritical):
        if op.cell not in m.critical:
            raise InvalidOp("cell %r is not critical" % (op.cell,))
        if not cx.is_maximal(op.cell):
            raise InvalidOp("cell %r is not maximal" % (op.cell,))
        m.drop_critical(op.cell)
        cx.remove_cell(op.cell)
        state.flow_memo.pop(op.cell, None)
        return KernelRemove(op.cell)

    if isinstance(op, RemovePair):
        if m.pair_up.get(op.tau) != op.sigma:
            raise InvalidOp("cells %r, %r are not paired" % (op.tau, op.sigma))
        if not cx.is_maximal(op.sigma):
            raise InvalidOp("king %r is not maximal" % (op.sigma,))
        cx.remove_cell(op.sigma)
        if not cx.is_maximal(op.tau):
            raise InvalidOp("queue cell %r not maximal after its king" % (op.tau,))
        cx.remove_cell(op.tau)
        m.drop_pair(op.tau)
        state.flow_memo.pop(op.tau, None)
        state.flow_memo.pop(op.sigma, None)
        return None

    if isinstance(op, RemoveUnpaired):
        if m.pair_up.get(op.tau) != op.sigma:
            raise InvalidOp("cells %r, %r are not paired" % (op.tau, op.sigma))
        if not cx.is_maximal(op.sigma):
            raise InvalidOp("cell %r is not maximal" % (op.sigma,))
        incidence = cx.facets[op.sigma].get(op.tau, 0)
        if not incidence:
            raise InvalidOp("pair (%r, %r) has zero incidence" % (op.tau, op.sigma))
        m.unpair(op.tau)
        state.flow_memo.clear()  # the pair's flows, and all through them, change
        sigma_boundary = _reduced_boundary(state, op.sigma)
        tau_cofacets = morse_coboundary(cx, m, op.tau)
        if sigma_boundary.get(op.tau) != incidence:
            raise InvalidOp("reduced boundary lost the pair incidence")
        update = KernelUnpair(op.tau, op.sigma, cx.dims[op.tau], sigma_boundary,
                              tau_cofacets, incidence, cx.seq[op.tau],
                              cx.seq[op.sigma])
        m.drop_critical(op.sigma)
        cx.remove_cell(op.sigma)
        return update

    raise InvalidOp("unknown atomic op %r" % (op,))
