"""Streaming zigzag persistence over a complex that never fully materialises.

``run_stream`` consumes forward/backward blocks, keeps the evolving complex
reduced through a discrete Morse matching, and feeds only the critical-cell
traffic to the column kernel in ``matrix``.  The output is the interval
decomposition in block indices plus operation/size metrics.
"""

from collections import ChainMap, namedtuple

from .cells import Complex, check_boundary, check_cycle, check_dim
from .errors import (BrokenBoundary, BrokenInvariant, InvalidOp, KernelError,
                     NotRemovable, UnknownCell)
from .matrix import HomologyMatrix
from .morse import Matching, coreduce
from .stream import (KernelInsert, KernelUnpair, MorseState, RemoveCritical,
                     apply_atomic, atomize_backward, atomize_forward)
from .validate import ShadowMatrix

Interval = namedtuple("Interval", "dim birth death")
Metrics = namedtuple("Metrics", "raw_ops reduced_ops max_cells max_critical")


# perfbench/tracing.HOOKS rebinds these three wrappers (and coreduce,
# atomize_*, apply_atomic, and stream.morse_boundary/morse_coboundary), so
# they stay module globals called by name; tests/test_hooks.py checks it.
def insert_into_matrix(matrix, update, block):
    """Feed one critical insertion to the column kernel; returns an event."""
    return matrix.forward_insert(update.cell, update.dim, update.boundary,
                                 block, update.seq)


def remove_from_matrix(matrix, cell, block):
    """Feed one critical removal to the column kernel; returns an event."""
    return matrix.backward_remove(cell, block)


def unpair_in_matrix(matrix, update):
    """Feed a pair split to the column kernel."""
    matrix.unpair_update(update.tau, update.sigma, update.sigma_boundary,
                         update.tau_cofacets, update.tau_dim, update.tau_seq,
                         update.sigma_seq)


def _caller_id(alive, cell):
    """The external id of a live internal id; a scan, so only for errors."""
    return next(ext for ext, (c, _) in alive.items() if c == cell)


def _translate_forward(cells, cx, alive, validate):
    """Map one insertion block to internal ids; returns insertion records.

    ``alive`` maps each live external id to ``(internal id, dim)``.  The
    block's cells join it first, so a facet may also be another cell of the
    block; then each record is checked as in ``Complex``: ``check_boundary``,
    and ``check_cycle`` if ``validate``.
    """
    # Fresh int ids are not a leftover: keyed by the caller's ids the engine
    # gives byte-identical output, but a probe ran rips-150 about 14% slower,
    # since every dict operation then hashes a simplex tuple.
    new = []
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
        entry = alive[ext] = (cx.fresh_id(), check_dim(ext, dim))
        new.append((ext, boundary, entry))
    records = {cell: (dim, check_boundary(ext, dim, boundary, alive.get, cx.p))
               for ext, boundary, (cell, dim) in new}
    if validate:
        chains = ChainMap({c: bd for c, (_, bd) in records.items()}, cx.facets)
        for ext, _, (cell, _) in new:
            check_cycle(ext, records[cell][1], chains.__getitem__, cx.p)
    return records


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
    ``Metrics.reduced_ops`` counts the rows it added or removed.
    ``p`` must be prime (``BadParameters`` otherwise).
    ``morse=False`` skips the matching step and runs every cell through the
    kernel.  ``observer(state, matrix, op)`` is called after every atomic
    operation; a non-callable observer raises ``InvalidOp``.

    ``validate=True`` also turns on consistency checks (``BrokenInvariant``):
    a recheck of every memoized flow, and an unreduced shadow kernel whose
    cycle counts are compared with the reduced matrix after every atomic
    operation (skipped when ``morse=False``, where the two would coincide by
    construction).
    """
    if observer is not None and not callable(observer):
        raise InvalidOp("observer %r is not callable" % (observer,))
    state = MorseState(Complex(p), Matching(), validate)
    cx = state.complex
    matrix = HomologyMatrix(cx.p)
    shadow = ShadowMatrix(cx.p) if validate and morse else None
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
            cells = list(cells)
        except (TypeError, ValueError):
            raise InvalidOp("block %d is not (direction, cells)"
                            % (block_index,)) from None
        raw_ops += len(cells)  # N: one raw op per cell in or out

        if direction == "F":
            records = _translate_forward(cells, cx, alive, validate)
            if morse:
                matching = coreduce(records)
            else:
                matching = Matching()
                for cell in records:
                    matching.add_critical(cell)
            ops = atomize_forward(records, matching)
        elif direction == "B":
            ops = atomize_backward(_translate_backward(cells, cx, alive),
                                   state)
        else:
            raise InvalidOp("unknown block direction %r" % (direction,))

        for op in ops:
            update = apply_atomic(state, op)
            kind = type(update)
            event = None
            if kind is KernelInsert:
                try:
                    event = insert_into_matrix(matrix, update, block_index)
                except KernelError:
                    raise BrokenBoundary("boundary of cell %r is not a cycle"
                                         % (_caller_id(alive, update.cell),)) from None
            elif kind is RemoveCritical:
                event = remove_from_matrix(matrix, update.cell, block_index)
            elif kind is KernelUnpair:
                unpair_in_matrix(matrix, update)
            if event is not None and event[1] < block_index:
                intervals.append(Interval(event[0], event[1], block_index - 1))
            if shadow is not None:
                shadow.mirror(state, op)
                shadow.compare(matrix)
            if observer is not None:
                observer(state, matrix, op)

        if validate and len(matrix) != len(state.matching.critical):
            raise BrokenInvariant("matrix rows diverge from the critical cells")
        max_cells = max(max_cells, len(cx))
        max_critical = max(max_critical, len(state.matching.critical))

    if len(cx):
        raise InvalidOp("stream must end at the empty complex")

    intervals.sort()
    return intervals, Metrics(raw_ops, matrix.row_ops, max_cells, max_critical)
