"""Streaming zigzag persistence over a complex that never fully materialises.

``run_stream`` consumes forward/backward blocks, keeps the evolving complex
reduced through a discrete Morse matching, and feeds only the critical-cell
traffic to the column kernel in ``matrix``.  The output is the interval
decomposition in block indices plus operation/size metrics.
"""

import operator
from collections import namedtuple

from .cells import Complex
from .errors import (InconsistentBoundary, InvalidOp, KernelError,
                     MissingFacet, UnknownCell, UnknownRow, ZeroPairIncidence)
from .matrix import HomologyMatrix
from .morse import Matching, coreduce
from .stream import (KernelInsert, KernelRemove, KernelUnpair, MorseState,
                     apply_atomic, atomize_backward, atomize_forward)
from .validate import ShadowMatrix

Interval = namedtuple("Interval", "dim birth death")
Metrics = namedtuple("Metrics", "raw_ops reduced_ops max_cells max_critical")


def insert_into_matrix(matrix, update, birth):
    """Feed one critical insertion to the column kernel; returns an event."""
    try:
        return matrix.forward_insert(update.cell, update.dim, update.boundary,
                                     birth, update.seq)
    except KernelError as exc:
        raise InconsistentBoundary(str(exc)) from None


def remove_from_matrix(matrix, cell, birth):
    """Feed one critical removal to the column kernel; returns an event."""
    if cell not in matrix.rowseq:
        raise UnknownRow("cell %r has no row in the matrix" % (cell,))
    return matrix.backward_remove(cell, birth)


def unpair_in_matrix(matrix, update):
    """Feed a pair split to the column kernel."""
    if update.pair_incidence % matrix.p == 0:
        raise ZeroPairIncidence(
            "pair (%r, %r) has zero incidence" % (update.tau, update.sigma))
    matrix.unpair_update(update.tau, update.sigma, update.sigma_boundary,
                         update.tau_cofacets, update.pair_incidence,
                         update.tau_dim, update.tau_seq, update.sigma_seq)


def _translate_forward(cells, cx, ext2int):
    """Map one insertion block to internal ids; returns insertion records.

    This is the door for cell data, so both pipelines reject the same
    input: ids must be hashable, a boundary a mapping, a dimension a
    non-negative integer and a coefficient an integer (``InvalidOp``), and
    every listed facet must be alive before the block or be another cell of
    it, one dimension down (``MissingFacet``).
    """
    fresh = {}  # external id -> (internal id, dimension)
    for fc in cells:
        try:
            alive = fc.cell in ext2int or fc.cell in fresh
        except TypeError:
            raise InvalidOp("cell id %r is not hashable" % (fc.cell,)) from None
        if alive:
            raise InvalidOp("cell id %r is already alive" % (fc.cell,))
        try:
            dim = operator.index(fc.dim)
        except TypeError:
            dim = -1
        if dim < 0:
            raise InvalidOp("cell %r has dimension %r, not a non-negative "
                            "integer" % (fc.cell, fc.dim))
        fresh[fc.cell] = (cx.fresh_id(), dim)
    p = cx.p
    dims = cx.dims
    records = {}
    for fc in cells:
        cell, dim = fresh[fc.cell]
        bd = {}
        try:
            chain = fc.boundary.items()
        except AttributeError:
            raise InvalidOp("boundary %r of cell %r is not a mapping"
                            % (fc.boundary, fc.cell)) from None
        for facet, coeff in chain:
            try:
                new = facet in fresh
            except TypeError:
                raise InvalidOp("facet id %r of cell %r is not hashable"
                                % (facet, fc.cell)) from None
            if new:
                target, facet_dim = fresh[facet]
            elif facet in ext2int:
                target = ext2int[facet]
                facet_dim = dims[target]
            else:
                raise MissingFacet("facet %r is not alive" % (facet,))
            if facet_dim != dim - 1:
                raise MissingFacet("facet %r of cell %r has dimension %d, "
                                   "expected %d"
                                   % (facet, fc.cell, facet_dim, dim - 1))
            try:
                coeff = operator.index(coeff) % p
            except TypeError:
                raise InvalidOp("coefficient %r on facet %r is not an integer"
                                % (coeff, facet)) from None
            if coeff:
                bd[target] = coeff
        records[cell] = (dim, bd)
    for ext, (cell, _) in fresh.items():
        ext2int[ext] = cell
    return records


def _translate_backward(cells, ext2int):
    out = set()
    for ext in cells:
        try:
            cell = ext2int[ext]
        except KeyError:
            raise UnknownCell("cell id %r is not alive" % (ext,)) from None
        except TypeError:
            raise InvalidOp("cell id %r is not hashable" % (ext,)) from None
        if cell in out:
            raise InvalidOp("cell id %r removed twice in one block" % (ext,))
        out.add(cell)
    return out


def run_stream(blocks, p=2, morse=True, validate=False, observer=None):
    """Run a zigzag stream; returns (intervals, metrics).

    ``blocks`` is an iterable of BlockOp; the stream must start and end at
    the empty complex.  Intervals are (dim, birth, death) with inclusive
    block indices counted from 1: the class is alive in the complexes seen
    after those blocks.  ``p`` must be prime (``BadParameters`` otherwise).
    ``morse=False`` skips the matching step and runs every cell through the
    kernel.  ``observer(state, matrix, op)`` is called after every atomic
    operation.

    ``validate=True`` turns on consistency checks, including an unreduced
    shadow kernel whose cycle counts are compared with the reduced matrix
    after every atomic operation (skipped when ``morse=False``, where the
    two would coincide by construction).
    """
    state = MorseState(Complex(p=p, validate=validate), Matching())
    cx = state.complex
    matrix = HomologyMatrix(cx.p)
    shadow = ShadowMatrix(cx.p) if validate and morse else None
    ext2int = {}
    events = []
    raw_ops = reduced_ops = max_cells = max_critical = 0
    atomic_pos = 0
    block_index = 0

    for block in blocks:
        block_index += 1

        if block.direction == "F":
            records = _translate_forward(block.cells, cx, ext2int)
            if morse:
                matching = coreduce(records)
            else:
                matching = Matching()
                for cell in records:
                    matching.add_critical(cell)
            ops = atomize_forward(records, matching)
            exts = ()
            raw_ops += len(records)  # N: one raw op per cell in or out
        elif block.direction == "B":
            exts = list(block.cells)  # read twice; cells may be an iterator
            ops = atomize_backward(_translate_backward(exts, ext2int), state)
            raw_ops += len(exts)
        else:
            raise InvalidOp("unknown block direction %r" % (block.direction,))

        for op in ops:
            update = apply_atomic(state, op)
            kind = type(update)
            if kind is KernelInsert:
                reduced_ops += 1
                atomic_pos += 1
                event = insert_into_matrix(
                    matrix, update, (True, atomic_pos, block_index))
            elif kind is KernelRemove:
                reduced_ops += 1
                atomic_pos += 1
                event = remove_from_matrix(
                    matrix, update.cell, (False, atomic_pos, block_index))
            elif kind is KernelUnpair:
                reduced_ops += 3
                atomic_pos += 1
                unpair_in_matrix(matrix, update)
                atomic_pos += 1
                event = remove_from_matrix(
                    matrix, update.sigma, (False, atomic_pos, block_index))
            else:
                event = None
            if event is not None:
                events.append((event[0], event[1], block_index))
            if shadow is not None:
                shadow.mirror(state, op)
                shadow.compare(matrix)
            if observer is not None:
                observer(state, matrix, op)
        for ext in exts:
            del ext2int[ext]

        if validate and len(matrix) != len(state.matching.critical):
            raise InvalidOp("matrix rows diverge from the critical cells")
        max_cells = max(max_cells, len(cx))
        max_critical = max(max_critical, len(state.matching.critical))

    if len(cx):
        raise InvalidOp("stream must end at the empty complex")

    intervals = []
    for dim, birth, death_block in events:
        if birth[2] <= death_block - 1:
            intervals.append(Interval(dim, birth[2], death_block - 1))
    intervals.sort()
    return intervals, Metrics(raw_ops, reduced_ops, max_cells, max_critical)
