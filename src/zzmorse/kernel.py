"""Streaming zigzag persistence over a complex that never fully materialises.

``run_stream`` consumes forward/backward blocks, keeps the evolving complex
reduced through a discrete Morse matching, and feeds only the critical-cell
traffic to the column kernel in ``matrix``.  The output is the interval
decomposition in block indices plus operation/size metrics.
"""

from collections import ChainMap, namedtuple
from operator import itemgetter

from .cells import Complex, check_boundary, check_cycle, check_dim
from .errors import (BadParameters, BrokenBoundary, BrokenInvariant,
                     InvalidOp, KernelError, NotRemovable, UnknownCell)
from .matrix import HomologyMatrix
from .morse import Matching, coreduce
from .stream import (InsertCritical, InsertPair, MorseState, RemoveCritical,
                     RemovePair, Split, apply_atomic, atomize_backward,
                     atomize_forward, new_op, reduced_boundary)
from .validate import ShadowComplex

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


def _caller_id(alive, cell):
    """The external id of a live internal id; a scan, so only for errors."""
    return next(ext for ext, (c, _) in alive.items() if c == cell)


def _translate_forward(cells, cx, alive, validate):
    """Map one insertion block to internal ids; returns ``(records, inner)``.

    ``alive`` maps each live external id to ``(internal id, dim)``.  The
    block's cells join it first, so a facet may also be another cell of the
    block; then each record is checked as in ``Complex``: ``check_boundary``,
    and ``check_cycle`` if ``validate``.  ``inner`` tells whether any facet
    is a cell of the block, that is, an id at or above its first fresh id.
    """
    # Fresh int ids are not a leftover: keyed by the caller's ids the engine
    # gives byte-identical output, but a probe ran rips-150 about 14% slower,
    # since every dict operation then hashes a simplex tuple.
    new = []
    fresh_id, lookup, p = cx.fresh_id, alive.get, cx.p
    for record in cells:
        try:
            ext, dim, boundary = record
        except (TypeError, ValueError):
            raise InvalidOp("forward record %r is not (cell, dim, boundary)"
                            % (record,)) from None
        try:
            known = ext in alive
        except TypeError:
            raise InvalidOp("cell id %r is not hashable" % (ext,)) from None
        if known:
            raise InvalidOp("cell id %r is already alive" % (ext,))
        if type(dim) is not int or dim < 0:  # a plain int needs no check
            dim = check_dim(ext, dim)
        entry = alive[ext] = (fresh_id(), dim)
        new.append((ext, boundary, entry))
    records = {}
    inner = False
    first = new[0][2][0] if new else None  # the block's first fresh id
    for ext, boundary, (cell, dim) in new:
        if type(boundary) is dict and not boundary:  # needs no check
            records[cell] = (dim, {})
            continue
        bd = check_boundary(ext, dim, boundary, lookup, p)
        records[cell] = (dim, bd)
        if bd and not inner:
            inner = max(bd) >= first
    if validate:
        chains = ChainMap({c: bd for c, (_, bd) in records.items()}, cx.facets)
        for ext, _, (cell, _) in new:
            check_cycle(ext, records[cell][1], chains.__getitem__, p)
    return records, inner


def _translate_backward(cells, cx, alive):
    """Take a removal block's ids out of ``alive``; return the internal ids.
    A cofacet left behind raises ``NotRemovable`` in the caller's ids."""
    out = set()
    for ext in cells:
        try:
            cell = alive[ext][0]
        except KeyError:
            raise UnknownCell("cell id %r is not alive" % (ext,)) from None
        except TypeError:
            raise InvalidOp("cell id %r is not hashable" % (ext,)) from None
        if cell in out:
            raise InvalidOp("cell id %r removed twice in one block" % (ext,))
        out.add(cell)
    for ext in cells:
        for cof in cx.cofacets[alive.pop(ext)[0]]:
            if cof not in out:
                raise NotRemovable("cell %r has a cofacet %r outside the block"
                                   % (ext, _caller_id(alive, cof)))
    return out


def run_stream(blocks, p=2, morse=True, validate=False, observer=None):
    """Run a zigzag stream; returns (intervals, metrics).

    ``blocks`` is an iterable of ``(direction, cells)`` pairs such as
    BlockOp: ``("F", [(cell, dim, boundary), ...])`` with records such as
    ForwardCell, or ``("B", [cell, ...])``; any other shape raises
    ``InvalidOp``.  A removal block must take every cofacet of its cells
    with it (``NotRemovable``).  The stream must start and end at the empty
    complex.  Every boundary must be a cycle (its own boundary zero), else
    ``BrokenBoundary`` names the cell: with ``validate=True`` before its
    block runs, with ``morse=False`` when the kernel meets it, and never
    otherwise; such a stream may then give a diagram.
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

    Each block becomes atomic ops (``stream.atomize_forward`` after
    ``coreduce``, or ``stream.atomize_backward``).  An insertion block with
    no facet inside it cannot pair, so it skips the matching step, as every
    block does with ``morse=False``: its ops are an ``InsertCritical`` per
    cell in (dim, id) order, the order ``atomize_forward`` would give.  One
    loop applies every op to the complex, the matching and the flow memo,
    and feeds critical insertions, critical removals and pair splits
    (through ``stream.apply_atomic``) to the column kernel.

    ``validate=True`` also turns on consistency checks (``BrokenInvariant``):
    a recheck of every memoized flow, and an unreduced shadow kernel whose
    cycle counts are compared with the reduced matrix after every atomic
    operation (skipped when ``morse=False``, where the two would coincide by
    construction).
    """
    if type(morse) is not bool or type(validate) is not bool:
        for name, flag in (("morse", morse), ("validate", validate)):
            if type(flag) is not bool:
                raise BadParameters("%s=%r is not a bool" % (name, flag))
    if observer is not None and not callable(observer):
        raise InvalidOp("observer %r is not callable" % (observer,))
    shadowed = validate and morse
    state = MorseState(ShadowComplex(p) if shadowed else Complex(p), Matching(),
                       validate)
    cx = state.complex
    m = state.matching
    critical = m.critical
    memo = state.flow_memo
    matrix = HomologyMatrix(cx.p, cx.seq, cx.dims)
    alive = {}  # external id -> (internal id, dimension)
    intervals = []
    raw_ops = max_cells = max_critical = 0
    block_index = 0
    try:
        blocks = iter(blocks)
    except TypeError:
        raise InvalidOp("stream %r is not iterable" % (blocks,)) from None

    for block in blocks:
        block_index += 1
        try:
            direction, cells = block
            if type(cells) is not list:  # a list is read in place, not copied
                if isinstance(cells, (str, bytes, bytearray)):  # not one id each
                    raise InvalidOp("block %d gives its cells as a string %r"
                                    % (block_index, cells))
                cells = list(cells)
        except (TypeError, ValueError):
            raise InvalidOp("block %d is not (direction, cells)"
                            % (block_index,)) from None
        raw_ops += len(cells)  # N: one raw op per cell in or out

        if direction == "F":
            records, inner = _translate_forward(cells, cx, alive, validate)
            if inner and morse:
                ops = atomize_forward(records, coreduce(records))
            else:
                # No facet inside the block, or no matching step: every cell
                # is critical, in the (dim, id) order atomize_forward gives
                ops = [new_op(InsertCritical, (cell, dim, bd))
                       for cell, (dim, bd) in records.items()]
                ops.sort(key=_dim_of)
        elif direction == "B":
            ops = atomize_backward(_translate_backward(cells, cx, alive),
                                   state)
        else:
            raise InvalidOp("unknown block direction %r" % (direction,))

        # Each op's effect is written here once (a split's in apply_atomic),
        # and each refusal of an op comes before its first write.
        for op in ops:
            kind = type(op)
            event = None
            if kind is InsertCritical:
                cell, dim, boundary = op
                cx.attach(cell, dim, boundary)
                critical.add(cell)
                # a cell with no facets reaches no critical cell: no flow
                boundary = reduced_boundary(state, cell) if boundary else {}
                try:
                    event = insert_into_matrix(matrix, cell, boundary,
                                               block_index)
                except KernelError:
                    raise BrokenBoundary("boundary of cell %r is not a cycle"
                                         % (_caller_id(alive, cell),)) from None
            elif kind is InsertPair:
                tau, sigma = op.tau, op.sigma
                if tau not in op.sigma_boundary:
                    raise InvalidOp("cells %r, %r do not form a pair"
                                    % (tau, sigma))
                cx.attach(tau, op.tau_dim, op.tau_boundary)
                cx.attach(sigma, op.sigma_dim, op.sigma_boundary)
                m.add_pair(tau, sigma)
            elif kind is RemoveCritical:
                cell = op.cell
                if cell not in critical:
                    raise InvalidOp("cell %r is not critical" % (cell,))
                cx.remove_cell(cell)
                critical.discard(cell)
                memo.pop(cell, None)
                event = remove_from_matrix(matrix, cell, block_index)
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
            if event is not None and event[1] < block_index:
                intervals.append((event[0], event[1], block_index - 1))
            if shadowed:
                cx.compare(matrix)
            if observer is not None:
                observer(state, matrix, op)

        if validate and len(matrix) != len(critical):
            raise BrokenInvariant("matrix rows diverge from the critical cells")
        if len(cx.dims) > max_cells:
            max_cells = len(cx.dims)
        if len(critical) > max_critical:
            max_critical = len(critical)

    if cx.dims:
        raise InvalidOp("stream must end at the empty complex")

    intervals.sort()
    intervals = [tuple.__new__(Interval, t) for t in intervals]
    return intervals, Metrics(raw_ops, matrix.row_ops, max_cells, max_critical)
