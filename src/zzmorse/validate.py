"""Runtime audits used by validate mode and the acceptance suite.

Three independent cross-checks live here.  ``check_matrix`` (as an observer,
``check_invariants``) audits the column kernel's promises: triangular leading
terms, cycle columns with zero boundary, boundary columns equal to their
partners' boundaries, and a consistent pairing.  ``check_betti`` compares the
dense Betti numbers of the full and the Morse complex with the matrix's cycle
counts.  ``ShadowComplex`` replays each raw cell in an unreduced twin kernel,
whose cycle counts must match the reduced matrix's after every atomic op.
"""

from .cells import Complex, apply_boundary
from .errors import BrokenInvariant, KernelError
from .linalg import betti_numbers
from .matrix import HomologyMatrix
from .morse import morse_boundary


# -- structural audit of the homology matrix ---------------------------------------

def check_matrix(matrix, boundary_fn):
    """Audit the homology matrix; raises BrokenInvariant on any violation.

    ``boundary_fn`` maps a row cell to its boundary chain in the complex the
    matrix is tracking (for the engine, the Morse boundary of a critical
    cell).  Checks that every row is a cell of the complex, row order,
    triangularity, the cycle/boundary conditions, the pairing, and the
    occurrence-index and cycle-count bookkeeping.
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

    counts = {}
    for slot, col in matrix.cols.items():
        if not col.chain:
            raise BrokenInvariant("empty column at %r" % (slot,))
        dim = matrix.rowdim[slot]
        for cell, coeff in col.chain.items():
            if cell not in rows:
                raise BrokenInvariant("column %r touches a dead row" % (slot,))
            if matrix.rowdim[cell] != dim:
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
            counts[dim] = counts.get(dim, 0) + 1
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

    if counts != matrix.f_counts:
        raise BrokenInvariant("cycle-count bookkeeping is off: %r vs %r"
                              % (counts, matrix.f_counts))


def check_invariants(state, matrix, op=None):
    """Observer form of check_matrix against the current Morse boundary."""
    cx, matching = state.complex, state.matching
    check_matrix(matrix, lambda cell: morse_boundary(cx, matching, cell))


# -- dense Betti cross-check --------------------------------------------------------

def check_betti(state, matrix, op=None):
    """Observer asserting Betti(full) = Betti(Morse) = matrix cycle counts.

    Dense-rank computation on both complexes; only for small runs.
    """
    cx, matching = state.complex, state.matching
    p = cx.p
    full = {c: (cx.dims[c], cx.facets[c]) for c in cx.dims}
    reduced = {nu: (cx.dims[nu], morse_boundary(cx, matching, nu))
               for nu in matching.critical}
    betti = betti_numbers(full, p)
    if betti_numbers(reduced, p) != betti:
        raise BrokenInvariant("Morse complex changed the Betti numbers")
    if {d: b for d, b in enumerate(betti) if b} != matrix.f_counts:
        raise BrokenInvariant("matrix cycle counts disagree with Betti numbers")


# -- unreduced shadow kernel ---------------------------------------------------------

class ShadowComplex(Complex):
    """A complex whose ``attach`` and ``remove_cell`` replay the cell in
    ``shadow``, an unreduced ``HomologyMatrix`` with one row per raw cell.

    ``compare`` asserts that its cycle counts match the reduced matrix's.
    Every op is given block 0, since only counts are read.
    """

    def __init__(self, p=2):
        super().__init__(p)
        self.shadow = HomologyMatrix(self.p, self.seq, self.dims)

    def attach(self, cell, dim, bd):
        super().attach(cell, dim, bd)
        try:
            self.shadow.forward_insert(cell, dict(bd), 0)
        except KernelError as exc:
            raise BrokenInvariant("shadow insert of %r: %s" % (cell, exc)) from None

    def remove_cell(self, cell):
        super().remove_cell(cell)
        try:
            self.shadow.backward_remove(cell, 0)
        except KernelError as exc:
            raise BrokenInvariant("shadow removal of %r: %s" % (cell, exc)) from None

    def compare(self, reduced):
        if self.shadow.f_counts != reduced.f_counts:
            raise BrokenInvariant("cycle counts diverge: full %r, reduced %r"
                                  % (self.shadow.f_counts, reduced.f_counts))
