"""Audits and file writers that only the tests use.

The audits are observers, ``observer(state, matrix, op)``, that
``run_stream`` calls after every atomic op; ``audited`` chains several into
one, in order, and each raises ``BrokenInvariant`` on a violation.  None is
independent of the engine: each reads its state, and ``Shadow`` runs the
same ``HomologyMatrix``.

The kernel keeps no dimensions, so ``cycle_counts`` reads its per-dimension
cycle counts off the F columns, given the complex's ``dims``.
``check_matrix`` (as an observer, ``check_invariants``, which also checks
that the matrix rows are the critical cells) audits the column kernel's
promises: triangular leading terms, single-dimension columns, cycle
columns with zero boundary, boundary columns equal to their partners'
boundaries, and a consistent pairing.  ``Shadow`` replays every raw cell in
an unreduced twin kernel and compares cycle counts.  ``check_reads``
compares the memo entries that a critical insertion or a split has just
read with memo-free flows, and ``memo_auditor`` every entry.
``check_betti`` compares the dense Betti numbers of the full and the Morse
complex with the matrix's cycle counts.
``emit_image`` and ``emit_stream`` write the files ``zzmorse.cli`` parses,
and ``block_module`` gives the oracle's homology module of one dimension.
"""

from zzmorse.cells import apply_boundary, check_prime
from zzmorse.errors import KernelError, ZigzagError
from zzmorse.linalg import boundary_matrix, rank_mod
from zzmorse.matrix import HomologyMatrix
from zzmorse.morse import _flow, morse_boundary
from zzmorse.oracle import _module_over_states, _replay
from zzmorse.stream import (InsertCritical, InsertPair, RemoveCritical,
                            RemovePair, Split)


class BrokenInvariant(ZigzagError):
    """An audit found the engine's state inconsistent."""


def audited(*observers):
    """One observer that calls each of ``observers`` in turn."""

    def observe(state, matrix, op):
        for observer in observers:
            observer(state, matrix, op)

    return observe


# -- structural audit of the homology matrix ---------------------------------------

def cycle_counts(matrix, dims):
    """Number of F columns per dimension, ``dims`` mapping each slot to its
    dimension; dimensions without a cycle are left out."""
    counts = {}
    for slot, col in matrix.cols.items():
        if col.label == "F":
            dim = dims[slot]
            counts[dim] = counts.get(dim, 0) + 1
    return counts


def check_matrix(matrix, boundary_fn, dims):
    """Audit the homology matrix; raises BrokenInvariant on any violation.

    ``boundary_fn`` maps a row cell to its boundary chain in the complex the
    matrix is tracking (for the engine, the Morse boundary of a critical
    cell), and ``dims`` maps it to its dimension.  Checks that every row is
    a cell of the complex, row order, triangularity, that no column mixes
    dimensions, the cycle/boundary conditions, the pairing, and the
    occurrence index.
    """
    p = matrix.p
    rows, seq = matrix.occ, matrix.seq
    if set(matrix.cols) != set(rows):
        raise BrokenInvariant("columns and rows list different cells")
    for cell in rows:
        if cell not in seq:
            raise BrokenInvariant("row %r is not in the complex" % (cell,))
    for cell in rows:
        for facet in boundary_fn(cell):
            if facet not in rows:
                raise BrokenInvariant("boundary of %r leaves the rows" % (cell,))
            if seq[facet] >= seq[cell]:
                raise BrokenInvariant(
                    "row order is not a filtration: %r above %r" % (facet, cell))

    for slot, col in matrix.cols.items():
        if not col.chain:
            raise BrokenInvariant("empty column at %r" % (slot,))
        dim = dims[slot]
        for cell, coeff in col.chain.items():
            if cell not in rows:
                raise BrokenInvariant("column %r touches a dead row" % (slot,))
            if dims[cell] != dim:
                raise BrokenInvariant("column %r mixes dimensions" % (slot,))
            if coeff % p == 0:
                raise BrokenInvariant("stored zero coefficient in %r" % (slot,))
            if slot not in matrix.occ[cell]:
                raise BrokenInvariant("occurrence index misses %r" % (slot,))
        if max(col.chain, key=seq.get) != slot:
            raise BrokenInvariant("column at %r does not lead there" % (slot,))

        bd = apply_boundary(col.chain, boundary_fn, p)
        if col.label == "F":
            if bd:
                raise BrokenInvariant("cycle column %r has a boundary" % (slot,))
            if col.birth is None:
                raise BrokenInvariant("cycle column %r carries no birth" % (slot,))
        elif col.label == "G":
            partner = matrix.cols.get(col.partner)
            if partner is None or partner.label != "H" or partner.partner != slot:
                raise BrokenInvariant("boundary column %r is unpartnered" % (slot,))
        elif col.label == "H":
            partner = matrix.cols.get(col.partner)
            if partner is None or partner.label != "G" or partner.partner != slot:
                raise BrokenInvariant("chain column %r is unpartnered" % (slot,))
            if bd != partner.chain:
                raise BrokenInvariant(
                    "chain column %r does not bound its partner" % (slot,))
        else:
            raise BrokenInvariant("unknown label %r at %r" % (col.label, slot))

    for cell, slots in matrix.occ.items():
        for slot in slots:
            if cell not in matrix.cols[slot].chain:
                raise BrokenInvariant("stale occurrence entry at %r" % (cell,))


def check_invariants(state, matrix, op=None):
    """Observer form of check_matrix against the current Morse boundary,
    after checking that the matrix has one row per critical cell."""
    cx, matching = state.complex, state.matching
    if matrix.cols.keys() != matching.critical:
        raise BrokenInvariant("matrix rows diverge from the critical cells")
    check_matrix(matrix, lambda cell: morse_boundary(cx, matching, cell),
                 cx.dims)


# -- the unreduced twin kernel ------------------------------------------------------

class Shadow:
    """Observer replaying every raw cell in an unreduced twin kernel.

    The twin is a ``HomologyMatrix`` with one row per cell of the complex.
    It takes the cells of ``InsertCritical`` and ``InsertPair`` (tau, then
    sigma) and gives up those of ``RemoveCritical`` and ``RemovePair``
    (sigma, then tau); a split changes no cell.  After every op its cycle
    counts must equal the reduced matrix's.  The twin's counts follow its
    own returns: an inserted d-cell makes a d-cycle or kills a
    (d-1)-class, and a removed one kills a d-class or reopens a
    (d-1)-class.  The reduced matrix's counts are read off its columns
    after each op that reaches it (a critical insertion or removal, or a
    split); the pair ops leave it alone.  The twin keeps its own ``seq``
    and ``dims``: by the time it sees a ``RemovePair`` both cells have left
    the complex's, and a removal still reads them.  A new run (a new
    ``state``) starts a new twin.  Every op is given block 0, since only
    counts are read.
    """

    def __init__(self):
        self.state = None

    def __call__(self, state, matrix, op):
        if state is not self.state:
            self.state = state
            self.seq, self.dims = {}, {}
            self.twin = HomologyMatrix(state.complex.p, self.seq)
            self.counts, self.reduced = {}, {}
        kind = type(op)
        if kind is InsertCritical:
            self._insert(op.cell, op.dim, op.boundary)
        elif kind is InsertPair:
            self._insert(op.tau, op.tau_dim, op.tau_boundary)
            self._insert(op.sigma, op.sigma_dim, op.sigma_boundary)
        elif kind is RemoveCritical:
            self._remove(op.cell)
        elif kind is RemovePair:
            self._remove(op.sigma)
            self._remove(op.tau)
        if kind is InsertCritical or kind is RemoveCritical or kind is Split:
            self.reduced = cycle_counts(matrix, state.complex.dims)
        if self.counts != self.reduced:
            raise BrokenInvariant("cycle counts diverge: full %r, reduced %r"
                                  % (self.counts, self.reduced))

    def _count(self, dim, delta):
        n = self.counts[dim] = self.counts.get(dim, 0) + delta
        if not n:
            del self.counts[dim]

    def _insert(self, cell, dim, bd):
        self.seq[cell] = self.state.complex.seq[cell]
        self.dims[cell] = dim
        try:
            birth = self.twin.forward_insert(cell, dict(bd), 0)
        except KernelError as exc:
            raise BrokenInvariant("shadow insert of %r: %s" % (cell, exc)) from None
        if birth is None:
            self._count(dim, 1)
        else:
            self._count(dim - 1, -1)

    def _remove(self, cell):
        try:
            birth = self.twin.backward_remove(cell, 0)
        except KernelError as exc:
            raise BrokenInvariant("shadow removal of %r: %s" % (cell, exc)) from None
        del self.seq[cell]
        dim = self.dims.pop(cell)
        if birth is None:
            self._count(dim - 1, 1)
        else:
            self._count(dim, -1)


# -- the flow memo against memo-free flows ------------------------------------------

def _fresh_flow(state, cell):
    cx, m = state.complex, state.matching
    return _flow(cx.facets, m.pair_up, m.critical, m.pair_down, {cell: 1}, cx.p)


def check_reads(state, matrix, op):
    """Observer checking the memo entries a boundary read has just used.

    An ``InsertCritical`` has just read its cell's reduced boundary, and a
    ``Split`` sigma's: the sum of the entries of the cell's non-critical
    facets, each made on the way if it was missing.  Each of those entries
    must equal a memo-free flow.
    """
    kind = type(op)
    if kind is InsertCritical:
        cell = op.cell
    elif kind is Split:
        cell = op.sigma
    else:
        return
    memo = state.flow_memo
    for facet in state.complex.facets[cell]:
        if facet in memo and memo[facet] != _fresh_flow(state, facet):
            raise BrokenInvariant("stale memo entry for %r" % (facet,))


def memo_auditor(seen):
    """Observer checking every flow-memo entry against a memo-free flow.

    It counts into ``seen`` the ops it saw, the entries it checked and the
    splits among the ops.
    """

    def audit(state, matrix, op):
        memo = state.flow_memo
        for cell, chain in memo.items():
            if cell not in state.complex.dims:
                raise BrokenInvariant("memo keeps removed cell %r" % (cell,))
            if chain != _fresh_flow(state, cell):
                raise BrokenInvariant("stale memo entry for %r" % (cell,))
        seen["ops"] += 1
        seen["entries"] += len(memo)
        seen["unpairs"] += isinstance(op, Split)

    return audit


# -- dense Betti cross-check --------------------------------------------------------

def check_betti(state, matrix, op=None):
    """Observer asserting Betti(full) = Betti(Morse) = matrix cycle counts.

    Dense-rank computation on both complexes; only for small runs.
    """
    cx, matching = state.complex, state.matching
    p, dims = cx.p, cx.dims
    full = {c: (dims[c], cx.facets[c]) for c in dims}
    reduced = {nu: (dims[nu], morse_boundary(cx, matching, nu))
               for nu in matching.critical}
    betti = betti_numbers(full, p)
    if betti_numbers(reduced, p) != betti:
        raise BrokenInvariant("Morse complex changed the Betti numbers")
    if {d: b for d, b in enumerate(betti) if b} != cycle_counts(matrix, dims):
        raise BrokenInvariant("matrix cycle counts disagree with Betti numbers")


def betti_numbers(state, p=2):
    """Betti numbers of a snapshot, indexed by dimension (trailing zeros cut)."""
    if not state:
        return []
    top = max(d for d, _ in state.values())
    layers = [[c for c, (d, _) in state.items() if d == q]
              for q in range(top + 2)]
    ranks = [0]
    for q in range(1, top + 2):
        ranks.append(rank_mod(boundary_matrix(state, layers[q - 1], layers[q]), p))
    betti = [len(layers[q]) - ranks[q] - ranks[q + 1] for q in range(top + 1)]
    while betti and betti[-1] == 0:
        betti.pop()
    return betti


# -- file writers, the inverses of zzmorse.cli's parsers ---------------------------

def emit_image(image):
    """Inverse of parse_image: header line plus x-fastest values."""
    lines = ["dims %d %d %d" % image.dims]
    flat = image.values.reshape(-1, order="F")
    for start in range(0, flat.size, 8):
        lines.append(" ".join("%.17g" % v for v in flat[start:start + 8]))
    return "\n".join(lines) + "\n"


def emit_stream(blocks):
    """Inverse of parse_stream for integer-labelled blocks."""
    lines = []
    for block in blocks:
        if block.direction == "F":
            parts = ["F"]
            for c in block.cells:
                parts += [str(int(c.cell)), str(int(c.dim)), str(len(c.boundary))]
                for facet, coeff in c.boundary.items():
                    parts += [str(int(facet)), str(int(coeff))]
        else:
            parts = ["B"] + [str(int(c)) for c in block.cells]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# -- the oracle's homology module in one dimension ---------------------------------

def block_module(blocks, dim, p=2):
    """Homology-in-``dim`` module over block-boundary snapshots, one arrow
    per block."""
    p = check_prime(p)
    return _module_over_states(*_replay(blocks, p), dim, p)
