"""Streaming zigzag persistence over a complex that never fully materialises.

``run_stream`` consumes forward/backward blocks, keeps the evolving complex
reduced through a discrete Morse matching, and feeds only the critical-cell
traffic to the column kernel in ``matrix``.  The output is the interval
decomposition in block indices plus operation/size metrics.
"""

from collections import namedtuple
from operator import itemgetter

from .cells import (Complex, caller_id, read_block, read_stream,
                    translate_backward, translate_forward)
from .errors import BadParameters, BrokenBoundary, InvalidOp, KernelError
from .matrix import HomologyMatrix
from .morse import Matching, coreduce
from .stream import (InsertCritical, InsertPair, MorseState, RemoveCritical,
                     RemovePair, Split, apply_atomic, atomize_backward,
                     atomize_forward, new_op, reduced_boundary)

Interval = namedtuple("Interval", "dim birth death")
Metrics = namedtuple("Metrics", "raw_ops reduced_ops max_cells max_critical")
_dim_of = itemgetter(1)  # an InsertCritical's dim


# perfbench/tracing.HOOKS rebinds these three names (and coreduce,
# atomize_*, apply_atomic, and stream.morse_boundary/morse_coboundary), so
# they stay module globals called by name: run_stream's op loop calls one
# per critical insertion, critical removal and split, and apply_atomic per
# split; tests/test_hooks.py checks it.
insert_into_matrix = HomologyMatrix.forward_insert
remove_from_matrix = HomologyMatrix.backward_remove
unpair_in_matrix = HomologyMatrix.unpair_update


def run_stream(blocks, p=2, morse=True, validate=False, observer=None):
    """Run a zigzag stream; returns (intervals, metrics).

    ``blocks`` is an iterable of ``(direction, cells)`` pairs such as
    BlockOp: ``("F", [(cell, dim, boundary), ...])`` with records such as
    ForwardCell, or ``("B", [cell, ...])``; any other shape raises
    ``InvalidOp``.  A removal block must take every cofacet of its cells
    with it (``NotRemovable``).  The stream must start and end at the empty
    complex.  Every boundary must be a cycle (its own boundary zero), else
    ``BrokenBoundary`` names the cell: with ``validate=True`` before its
    block runs, with ``morse=False`` when the kernel meets it, and else
    maybe never.  A reduced boundary the kernel refuses is named, with the
    kernel's reason, in a ``BrokenBoundary`` (a ``KernelError`` after
    ``validate=True``, where the engine erred).  The cycle check is all
    ``validate`` does: on a stream that passes it, the ops applied and the
    output are the same either way.
    Intervals are (dim, birth, death) with inclusive block indices counted
    from 1: the class is alive in the complexes seen after those blocks.
    The kernel is told each op's block index and orders births itself;
    ``Metrics.reduced_ops`` counts the rows it added or removed; the sizes
    ``max_cells`` and ``max_critical`` are read after each block, not op.
    ``p`` must be prime, and ``morse`` and ``validate`` bools
    (``BadParameters`` otherwise).  ``morse=False`` skips the matching step
    and runs every cell through the kernel.  ``observer(state, matrix, op)``
    is called after every atomic operation; a non-callable observer raises
    ``InvalidOp``.

    The stream and each block pass the door in ``cells`` (``read_stream``,
    ``read_block``, then ``translate_forward`` or ``translate_backward``),
    as in the oracle, and each block becomes atomic ops
    (``stream.atomize_forward`` after ``coreduce``, or
    ``stream.atomize_backward``).  An insertion block with no facet inside
    it cannot pair, so it skips the matching step, as every block does with
    ``morse=False``: its ops are an ``InsertCritical`` per cell in (dim,
    id) order, the order ``atomize_forward`` would give.  One
    loop applies every op to the complex, the matching and the flow memo,
    and feeds critical insertions, critical removals and pair splits
    (through ``stream.apply_atomic``) to the column kernel.  The kernel
    returns the birth block of the class an op kills, and the loop names
    its dimension: one below the inserted cell's, or the removed cell's.

    The audits of the engine's own state are observers in
    ``tests/audits.py``: an unreduced twin kernel (which shares this
    kernel's code), the flow-memo rechecks and the structural matrix check.
    """
    if type(morse) is not bool or type(validate) is not bool:
        for name, flag in (("morse", morse), ("validate", validate)):
            if type(flag) is not bool:
                raise BadParameters("%s=%r is not a bool" % (name, flag))
    if observer is not None and not callable(observer):
        raise InvalidOp("observer %r is not callable" % (observer,))
    state = MorseState(Complex(p), Matching())
    cx = state.complex
    m = state.matching
    critical = m.critical
    memo = state.flow_memo
    matrix = HomologyMatrix(cx.p, cx.seq)
    alive = {}  # external id -> (internal id, dimension)
    intervals = []
    raw_ops = max_cells = max_critical = 0
    block_index = 0
    for block in read_stream(blocks):
        block_index += 1
        direction, cells = read_block(block, block_index)
        raw_ops += len(cells)  # N: one raw op per cell in or out

        if direction == "F":
            records, inner = translate_forward(cells, cx, alive, validate)
            if inner and morse:
                ops = atomize_forward(records, coreduce(records))
            else:
                # No facet inside the block, or no matching step: every cell
                # is critical, in the (dim, id) order atomize_forward gives
                ops = [new_op(InsertCritical, (cell, dim, bd))
                       for cell, (dim, bd) in records.items()]
                ops.sort(key=_dim_of)
        else:
            ops = atomize_backward(translate_backward(cells, cx, alive), state)

        # Each op's effect is written here once (a split's in apply_atomic),
        # and each refusal of an op comes before its first write.
        for op in ops:
            kind = type(op)
            birth = None
            if kind is InsertCritical:
                cell, dim, boundary = op
                cx.attach(cell, dim, boundary)
                critical.add(cell)
                # a cell with no facets reaches no critical cell: no flow
                boundary = reduced_boundary(state, cell) if boundary else {}
                try:
                    birth = insert_into_matrix(matrix, cell, boundary,
                                               block_index)
                except KernelError as exc:
                    ext = caller_id(alive, cell)
                    if not morse:  # the kernel saw the record's own boundary
                        raise BrokenBoundary("boundary of cell %r is not a "
                                             "cycle" % (ext,)) from None
                    raise (KernelError if validate else BrokenBoundary)(
                        "reduced boundary of cell %r was refused: %s"
                        % (ext, exc)) from None
                dim -= 1  # the class a d-cell kills is a (d-1)-class
            elif kind is InsertPair:
                tau, sigma, tau_dim, tau_bd, sigma_dim, sigma_bd = op
                if tau not in sigma_bd:
                    raise InvalidOp("cells %r, %r do not form a pair"
                                    % (tau, sigma))
                cx.attach(tau, tau_dim, tau_bd)
                cx.attach(sigma, sigma_dim, sigma_bd)
                m.add_pair(tau, sigma)
            elif kind is RemoveCritical:
                cell = op.cell
                if cell not in critical:
                    raise InvalidOp("cell %r is not critical" % (cell,))
                dim = cx.remove_cell(cell)
                critical.discard(cell)
                birth = remove_from_matrix(matrix, cell, block_index)
            elif kind is RemovePair:
                tau, sigma = op
                if m.pair_up.get(tau) != sigma:
                    raise InvalidOp("cells %r, %r are not paired" % (tau, sigma))
                cofacets = cx.cofacets[tau]
                if len(cofacets) > (sigma in cofacets):  # not sigma's alone
                    raise InvalidOp("queue cell %r not maximal after its king"
                                    % (tau,))
                cx.remove_cell(sigma)
                cx.remove_cell(tau)
                m.drop_pair(tau)
                memo.pop(tau, None)
                memo.pop(sigma, None)
            elif kind is Split:
                unpair_in_matrix(matrix, *apply_atomic(state, op))
            else:
                raise InvalidOp("unknown atomic op %r" % (op,))
            if birth is not None and birth < block_index:
                intervals.append((dim, birth, block_index - 1))
            if observer is not None:
                observer(state, matrix, op)

        if len(cx.dims) > max_cells:
            max_cells = len(cx.dims)
        if len(critical) > max_critical:
            max_critical = len(critical)

    if cx.dims:
        raise InvalidOp("stream must end at the empty complex")

    intervals.sort()
    intervals = [tuple.__new__(Interval, t) for t in intervals]
    return intervals, Metrics(raw_ops, matrix.row_ops, max_cells, max_critical)
