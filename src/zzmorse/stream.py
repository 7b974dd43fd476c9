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
"""

from collections import namedtuple

from .errors import BrokenInvariant, InvalidOp
# perfbench/tracing.HOOKS rebinds these two names here (and coreduce,
# atomize_*, apply_atomic and the *_in_matrix wrappers in zzmorse.kernel), so
# they stay module globals called by name; tests/test_hooks.py checks it.
from .morse import morse_boundary, morse_coboundary

ForwardCell = namedtuple("ForwardCell", "cell dim boundary")
BlockOp = namedtuple("BlockOp", "direction cells")  # direction: "F" | "B"

InsertCritical = namedtuple("InsertCritical", "cell dim boundary")
InsertPair = namedtuple(
    "InsertPair", "tau sigma tau_dim tau_boundary sigma_dim sigma_boundary")
RemoveCritical = namedtuple("RemoveCritical", "cell")
RemovePair = namedtuple("RemovePair", "tau sigma")
Split = namedtuple("Split", "tau sigma")

KernelInsert = namedtuple("KernelInsert", "cell dim boundary seq")
KernelUnpair = namedtuple(
    "KernelUnpair",
    "tau sigma tau_dim sigma_boundary tau_cofacets tau_seq sigma_seq",
)


class MorseState:
    """The streamed complex, its global matching, and its downward-flow memo.

    Nothing is staged here: insertion ops carry their own cell data.
    ``flow_memo`` (cell -> reduced chain, see ``morse._flow``) lives across
    blocks.  ``apply_atomic`` keeps it valid: insertions leave it alone,
    removals drop the removed cells' entries, and an unpair clears it.
    ``validate=True`` rechecks every memoized boundary it reads.
    """

    def __init__(self, complex_, matching, validate=False):
        self.complex = complex_
        self.matching = matching
        self.validate = validate
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
    ops = [InsertCritical(cell, *records[cell])
           for cell in sorted(matching.critical)]
    ops += [InsertPair(tau, sigma, *records[tau], *records[sigma])
            for tau, sigma in matching.pair_up.items()]
    # op[0] is the critical or queue cell; the stable sort keeps each
    # level's critical cells first, then its pairs, in the order built above
    ops.sort(key=lambda op: records[op[0]][0])
    return ops


# ---------------------------------------------------------------------------
# backward atomization
# ---------------------------------------------------------------------------

def atomize_backward(sigma_set, state):
    """Order a removal block of live cells into atomic ops, last inserted first.

    ``sigma_set`` must hold every cofacet of its cells, as
    ``kernel._translate_backward`` checks.  Facets are inserted before
    their cofacets, so descending ``cx.seq`` removes maximal cells only.  A
    pair holds consecutive seqs, so a king comes just before its queue cell
    and gives the op for both: RemovePair, or Split then RemoveCritical of
    the king if the queue cell stays.  A queue cell never leaves without its
    king, which is one of its cofacets.
    """
    cx = state.complex
    m = state.matching
    out = []
    for cell in sorted(sigma_set, key=cx.seq.__getitem__, reverse=True):
        if cell in m.pair_down:
            tau = m.pair_down[cell]
            if tau in sigma_set:
                out.append(RemovePair(tau, cell))
            else:
                out += Split(tau, cell), RemoveCritical(cell)
        elif cell not in m.pair_up:
            out.append(RemoveCritical(cell))
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
    if state.validate and bnd != morse_boundary(cx, state.matching, cell):
        raise BrokenInvariant("flow memo gives a stale boundary for %r" % (cell,))
    return bnd


def apply_atomic(state, op):
    """Mutate the Morse state by one atomic op; return the kernel's view of it.

    Insertions carry cell data checked at the door and go in through
    ``Complex.attach``.  Removals go first through ``Complex.remove_cell``,
    so one that leaves a cofacet raises ``NotRemovable`` before anything
    changes.  The return value is one of the kernel's three ops: a
    KernelInsert, the RemoveCritical op itself, or a KernelUnpair for a
    Split, which leaves the complex as it is; pair insertions and removals
    are invisible to the kernel and return None.
    """
    cx = state.complex
    m = state.matching

    if isinstance(op, InsertCritical):
        cx.attach(op.cell, op.dim, op.boundary)
        m.add_critical(op.cell)
        return KernelInsert(op.cell, op.dim, _reduced_boundary(state, op.cell),
                            cx.seq[op.cell])

    if isinstance(op, InsertPair):
        if op.tau not in op.sigma_boundary:
            raise InvalidOp("cells %r, %r do not form a pair" % (op.tau, op.sigma))
        cx.attach(op.tau, op.tau_dim, op.tau_boundary)
        cx.attach(op.sigma, op.sigma_dim, op.sigma_boundary)
        m.add_pair(op.tau, op.sigma)
        return None

    if isinstance(op, RemoveCritical):
        if op.cell not in m.critical:
            raise InvalidOp("cell %r is not critical" % (op.cell,))
        cx.remove_cell(op.cell)
        m.critical.discard(op.cell)
        state.flow_memo.pop(op.cell, None)
        return op

    if isinstance(op, RemovePair):
        if m.pair_up.get(op.tau) != op.sigma:
            raise InvalidOp("cells %r, %r are not paired" % (op.tau, op.sigma))
        if cx.cofacets[op.tau].keys() - {op.sigma}:
            raise InvalidOp("queue cell %r not maximal after its king" % (op.tau,))
        cx.remove_cell(op.sigma)
        cx.remove_cell(op.tau)
        m.drop_pair(op.tau)
        state.flow_memo.pop(op.tau, None)
        state.flow_memo.pop(op.sigma, None)
        return None

    if isinstance(op, Split):
        if m.pair_up.get(op.tau) != op.sigma:
            raise InvalidOp("cells %r, %r are not paired" % (op.tau, op.sigma))
        if cx.cofacets[op.sigma]:
            raise InvalidOp("cell %r is not maximal" % (op.sigma,))
        incidence = cx.facets[op.sigma].get(op.tau, 0)
        if not incidence:
            raise InvalidOp("pair (%r, %r) has zero incidence" % (op.tau, op.sigma))
        m.unpair(op.tau)
        state.flow_memo.clear()  # the pair's flows, and all through them, change
        sigma_boundary = _reduced_boundary(state, op.sigma)
        if sigma_boundary.get(op.tau) != incidence:
            raise InvalidOp("reduced boundary lost the pair incidence")
        return KernelUnpair(op.tau, op.sigma, cx.dims[op.tau], sigma_boundary,
                            morse_coboundary(cx, m, op.tau), cx.seq[op.tau],
                            cx.seq[op.sigma])

    raise InvalidOp("unknown atomic op %r" % (op,))
