"""Audits and file writers that only the tests use.

``check_matrix`` (as an observer, ``check_invariants``) audits the column
kernel's promises: triangular leading terms, cycle columns with zero
boundary, boundary columns equal to their partners' boundaries, and a
consistent pairing.  ``check_betti`` compares the dense Betti numbers of the
full and the Morse complex with the matrix's cycle counts.  ``emit_image``
and ``emit_stream`` write the files ``zzmorse.cli`` parses, and
``block_module`` gives the oracle's homology module of one dimension.
"""

from zzmorse.cells import apply_boundary, check_prime
from zzmorse.errors import BrokenInvariant
from zzmorse.linalg import boundary_matrix, rank_mod
from zzmorse.morse import morse_boundary
from zzmorse.oracle import _module_over_states, _replay


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
