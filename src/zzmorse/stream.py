"""Block-to-atomic decomposition of zigzag arrows over a Morse matching.

A zigzag filtration arrives as blocks: a forward block inserts a set of cells,
a backward block removes one.  Each block is matched (forward) or classified
against the standing matching (backward) and decomposed into atomic
operations, in an order that needs no scheduler: a forward block goes in by
dimension level, each level's critical cells before its pairs, and a
backward block leaves in reverse insertion order.  The kernel sees the
three maps of the zigzag Morse filtration: a critical insertion, a critical
removal, and a pair split.  Paired cells come and go silently, except when
a king leaves while its queue cell stays: the pair is first split, which
makes both cells critical and updates the reduced boundaries, and the king
then leaves as a critical cell.

``kernel.run_stream`` applies the four insertion and removal ops itself, in
one loop with one dispatch per op.  ``apply_atomic`` applies the split, the
one op whose kernel update needs flows; ``reduced_boundary`` gives the flow
of a critical insertion.
"""

from collections import namedtuple

from .errors import InvalidOp
# perfbench/tracing.HOOKS rebinds these two names here (and coreduce,
# atomize_*, apply_atomic and the *_in_matrix wrappers in zzmorse.kernel), so
# they stay module globals called by name: every flow the engine computes goes
# through reduced_boundary or apply_atomic below; tests/test_hooks.py checks it.
from .morse import morse_boundary, morse_coboundary

ForwardCell = namedtuple("ForwardCell", "cell dim boundary")
BlockOp = namedtuple("BlockOp", "direction cells")  # direction: "F" | "B"

InsertCritical = namedtuple("InsertCritical", "cell dim boundary")
InsertPair = namedtuple(
    "InsertPair", "tau sigma tau_dim tau_boundary sigma_dim sigma_boundary")
RemoveCritical = namedtuple("RemoveCritical", "cell")
RemovePair = namedtuple("RemovePair", "tau sigma")
Split = namedtuple("Split", "tau sigma")

new_op = tuple.__new__  # new_op(Op, fields) == Op(*fields), built in C


class MorseState:
    """The streamed complex, its global matching, and its downward-flow memo.

    Nothing is staged here: insertion ops carry their own cell data.
    ``flow_memo`` (non-critical cell -> reduced chain, see ``morse._flow``)
    lives across blocks.  The ops keep it valid: insertions leave it alone,
    a removed pair in ``kernel.run_stream`` drops its two entries (a
    critical cell has none), and a split in ``apply_atomic`` drops the
    entries whose paths reach the pair.  Nothing here checks the memo:
    ``check_reads`` and ``memo_auditor`` in ``tests/audits.py`` do, as
    observers.
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

    ``records`` maps each new cell to ``(dim, boundary)``; ``matching`` is
    the block's matching from ``coreduce``.  Ops go by level: for each d,
    the critical d-cells by id, then the pairs whose queue cell has
    dimension d, in ``pair_up`` order.  Facets thus come first: those of a
    level-d cell lie at earlier levels, and the other facets of a king were
    critical or paired before its pair formed (see ``coreduce``).
    """
    levels = {}  # dim -> the level's ops: its critical cells, then its pairs
    for cell in sorted(matching.critical):
        dim, bnd = records[cell]
        levels.setdefault(dim, []).append(
            new_op(InsertCritical, (cell, dim, bnd)))
    for tau, sigma in matching.pair_up.items():
        dim, bnd = records[tau]
        levels.setdefault(dim, []).append(
            new_op(InsertPair, (tau, sigma, dim, bnd, *records[sigma])))
    return [op for dim in sorted(levels) for op in levels[dim]]


# ---------------------------------------------------------------------------
# backward atomization
# ---------------------------------------------------------------------------

def atomize_backward(sigma_set, state):
    """Order a removal block of live cells into atomic ops, last inserted first.

    ``sigma_set`` must hold every cofacet of its cells, as
    ``cells.translate_backward`` checks.  Facets are inserted before
    their cofacets, so descending ``cx.seq`` removes maximal cells only.  A
    pair holds consecutive seqs, so a king comes just before its queue cell
    and gives the op for both: RemovePair, or Split then RemoveCritical of
    the king if the queue cell stays.  A queue cell never leaves without its
    king, which is one of its cofacets.
    """
    pair_up, pair_down = state.matching.pair_up, state.matching.pair_down
    out = []
    order = sigma_set
    if len(sigma_set) > 1:  # one cell needs no sort
        order = sorted(sigma_set, key=state.complex.seq.__getitem__,
                       reverse=True)
    for cell in order:
        tau = pair_down.get(cell)  # ids are ints, never None
        if tau is not None:
            if tau in sigma_set:
                out.append(new_op(RemovePair, (tau, cell)))
            else:
                out += (new_op(Split, (tau, cell)),
                        new_op(RemoveCritical, (cell,)))
        elif cell not in pair_up:
            out.append(new_op(RemoveCritical, (cell,)))
    return out


# ---------------------------------------------------------------------------
# kernel updates that need flows
# ---------------------------------------------------------------------------

def reduced_boundary(state, cell):
    """Morse boundary of a critical cell through the state's flow memo."""
    return morse_boundary(state.complex, state.matching, cell,
                          memo=state.flow_memo)


def apply_atomic(state, op):
    """Split the pair of a ``Split`` op; return the kernel's update.

    The complex stays as it is: both cells turn critical, the flow memo
    drops the entries whose paths reach the pair, and the update is the
    arguments of ``HomologyMatrix.unpair_update``: tau, sigma, sigma's
    reduced boundary and tau's reduced coboundary.
    ``kernel.run_stream`` applies the other four ops itself.
    """
    cx = state.complex
    m = state.matching
    if m.pair_up.get(op.tau) != op.sigma:
        raise InvalidOp("cells %r, %r are not paired" % (op.tau, op.sigma))
    if cx.cofacets[op.sigma]:
        raise InvalidOp("cell %r is not maximal" % (op.sigma,))
    incidence = cx.facets[op.sigma].get(op.tau, 0)
    if not incidence:
        raise InvalidOp("pair (%r, %r) has zero incidence" % (op.tau, op.sigma))
    # A queue cell's flow reads only its king's other facets, so the split
    # spoils the entries of sigma, tau, and each queue cell whose king has a
    # spoiled cell as a facet, on up.  Nothing lies above sigma, a maximal
    # cell, and the cells an entry reaches have entries unless critical, so
    # the walk starts at tau and stops at a cell with no entry.
    memo, cofacets, pair_down = state.flow_memo, cx.cofacets, m.pair_down
    memo.pop(op.sigma, None)
    memo.pop(op.tau, None)
    spoiled = [op.tau]
    while spoiled:
        cell = spoiled.pop()
        for king in cofacets[cell]:
            z = pair_down.get(king)
            if z is not None and z != cell and memo.pop(z, None) is not None:
                spoiled.append(z)
    m.unpair(op.tau)
    sigma_boundary = reduced_boundary(state, op.sigma)
    if sigma_boundary.get(op.tau) != incidence:
        raise InvalidOp("reduced boundary lost the pair incidence")
    return (op.tau, op.sigma, sigma_boundary,
            morse_coboundary(cx, m, op.tau))
