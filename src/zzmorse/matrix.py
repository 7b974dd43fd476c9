"""Column algebra for streaming zigzag persistence.

The matrix maintains one column per live critical cell, keyed by the column's
leading cell, with rows ordered by the cells' insertion sequence numbers,
read from the complex's own ``seq``; it keeps no dimensions, since the op
that kills a class fixes its dimension.  An insertion adds the newest row,
at the top.  One that kills turns its relation's sum into a boundary
column; the cycle that column displaces walks down the other cycle slots
the relation met, leaving the elder birth at each, and dies carrying the
youngest.  A removal clears its row from every
other column before deleting it: of the row's column and each blocker, the
one the removal would kill first (a cycle before a chain, cycles by birth,
chains by their G partner's seq) takes the row's slot and is eliminated from
the other.  An unpair puts the split pair back at its own sequence numbers,
which are consecutive, so no live row sits between them.  The common trivial
ops cost O(1): a creator with an empty boundary becomes its own cycle column
with no reduction, and a removal whose row no other column holds has nothing
to clear.

Columns carry one of three labels.  F columns are cycles and own a birth;
G columns are boundaries; each H column has ``boundary(H) = G`` for its
partnered G column.  Births/deaths of intervals fall out of label changes.

The matrix keeps its own clock, ``row_ops``: the rows its ops have added or
removed (an unpair adds two), which is the run's count of reduced ops.  A
class an insertion creates is born ``(+row_ops, block)`` and one a removal
reopens ``(-row_ops, block)``, so plain tuple order is the zigzag order of
births (Carlsson & de Silva, 2010): forward births by arrival, above every
backward birth, the latest lowest.  A removal kills the least class it
meets, an insertion the greatest.

Chain updates go through ``cells.chain_addmul``.  ``_addmul`` and
``_reduce`` keep their own loops because each also does per-entry
bookkeeping: the occurrence index and the reduction heap.
"""

import heapq

from .cells import chain_addmul, field_inv
from .errors import KernelError


class Column:
    __slots__ = ("chain", "label", "birth", "partner")

    def __init__(self, chain, label, birth=None, partner=None):
        self.chain = chain
        self.label = label
        self.birth = birth
        self.partner = partner


class HomologyMatrix:
    def __init__(self, p, seq):
        self.p = p
        self.seq = seq    # the complex's cell -> insertion sequence number
        self.cols = {}    # slot cell -> Column whose chain leads at that cell
        self.occ = {}     # row cell -> set of slots whose chain contains it
        self.last_seq = None  # largest seq forward_insert has read
        self.row_ops = 0  # rows added or removed so far: the clock of births

    # -- bookkeeping ---------------------------------------------------------

    def _addmul(self, slot, src, scalar):
        """cols[slot].chain += scalar * src, maintaining the occurrence index."""
        p = self.p
        scalar %= p
        if not scalar:
            return
        chain = self.cols[slot].chain
        occ = self.occ
        for cell, coeff in src.items():
            v = (chain.get(cell, 0) + scalar * coeff) % p
            if v:
                if cell not in chain:
                    occ[cell].add(slot)
                chain[cell] = v
            elif cell in chain:
                del chain[cell]
                occ[cell].discard(slot)

    def _set_column(self, slot, column):
        occ = self.occ
        old = self.cols.get(slot)
        if old is not None:
            for cell in old.chain:
                occ[cell].discard(slot)
        self.cols[slot] = column
        for cell in column.chain:
            occ[cell].add(slot)

    def _yield_key(self, col):
        """Order in which a removal kills columns: cycles before chains,
        cycles by birth, chains by their G partner's seq (least first)."""
        return (0, col.birth) if col.label == "F" else (1, self.seq[col.partner])

    # -- reduction -----------------------------------------------------------

    def _reduce(self, boundary):
        """Express a chain as a combination of columns; returns {slot: coeff}."""
        p = self.p
        seq, occ = self.seq, self.occ
        work = {}
        heap = []
        for cell, coeff in boundary.items():
            coeff %= p
            if coeff:
                if cell not in occ:
                    raise KernelError("boundary cell %r has no row" % (cell,))
                work[cell] = coeff
                heapq.heappush(heap, (-seq[cell], cell))
        used = {}
        while heap:
            _, lead = heapq.heappop(heap)
            coeff = work.get(lead)
            if not coeff:
                continue
            col = self.cols[lead].chain
            a = (coeff * field_inv(col[lead], p)) % p
            used[lead] = a
            for cell, c in col.items():
                v = (work.get(cell, 0) - a * c) % p
                if v:
                    if cell not in work:
                        heapq.heappush(heap, (-seq[cell], cell))
                    work[cell] = v
                else:
                    work.pop(cell, None)
        return used

    # -- the three kernel operations ------------------------------------------

    def forward_insert(self, cell, boundary, block):
        """Add a critical cell in block ``block``; ticks ``row_ops`` by 1.

        Returns the birth block of the class it kills, a dimension below the
        cell, or None when it creates a class, born ``(+row_ops, block)``.
        The cell's sequence number in the complex must exceed every earlier
        insertion's.
        """
        if cell in self.occ:
            raise KernelError("cell %r already has a row" % (cell,))
        cell_seq = self.seq.get(cell)
        if cell_seq is None:
            raise KernelError("cell %r is not in the complex" % (cell,))
        if self.last_seq is not None and cell_seq <= self.last_seq:
            raise KernelError("seq %r of %r is not above the last insertion's"
                              % (cell_seq, cell))
        if not boundary:  # a creator with an empty boundary: its own cycle
            self.row_ops += 1
            self.last_seq = cell_seq
            self.occ[cell] = {cell}
            self.cols[cell] = Column({cell: 1}, "F", (self.row_ops, block))
            return None
        # The new chain is the cell minus the H partners of the boundary
        # columns the boundary reduced onto; the cycle columns it met sum
        # to the relation's boundary column.  Nothing is written yet.
        cols, p = self.cols, self.p
        chain = {}
        fs = {}
        g_chain = {}
        for slot, a in self._reduce(boundary).items():
            col = cols[slot]
            label = col.label
            if label == "G":
                chain_addmul(chain, cols[col.partner].chain, -a, p)
            elif label == "F":
                fs[slot] = a
                chain_addmul(g_chain, col.chain, a, p)
            else:
                raise KernelError("boundary is not a cycle in the reduced complex")
        chain[cell] = 1
        self.row_ops += 1
        self.last_seq = cell_seq

        occ = self.occ
        occ[cell] = set()
        if not fs:  # a creator: the chain is its cycle column
            for c in chain:
                occ[c].add(cell)
            cols[cell] = Column(chain, "F", (self.row_ops, block))
            return None

        # The relation's sum becomes the boundary column at its top slot.  The
        # cycle it displaces walks down the other slots the relation met; at
        # each it keeps the elder birth there, reduces by that slot's column
        # and walks on, so it ends at zero carrying the youngest birth.
        seq = self.seq
        lead = max(fs, key=seq.get)
        walker = cols[lead]
        self._set_column(lead, Column(g_chain, "G", partner=cell))
        self._set_column(cell, Column(chain, "H", partner=lead))
        top, against = lead, g_chain
        while True:
            chain_addmul(walker.chain, against,
                         -walker.chain[top] * field_inv(against[top], p), p)
            if not walker.chain:
                return walker.birth[1]
            top = max(walker.chain, key=seq.get)
            col = self.cols[top]
            if walker.birth < col.birth:
                self._set_column(top, walker)
                walker, col = col, walker
            against = col.chain

    def backward_remove(self, cell, block):
        """Remove a cell's row in block ``block``; ticks ``row_ops`` by 1.

        Returns the birth block of the class it kills, in the cell's
        dimension, or None when it reopens one, born ``(-row_ops, block)``.
        """
        occ, cols = self.occ, self.cols
        rows = occ.get(cell)
        if rows is None:
            raise KernelError("cell %r has no row" % (cell,))
        if cols[cell].label == "G":
            raise KernelError("a boundary column leads at a maximal cell")
        blockers = (sorted((b for b in rows if b != cell), key=self.seq.get)
                    if len(rows) > 1 else ())
        for beta in blockers:  # every refusal comes before the first write
            if not cols[beta].chain.get(cell, 0):
                raise KernelError("stale occurrence of %r in %r" % (cell, beta))
            if cols[beta].label == "G":
                raise KernelError("a boundary column contains a removable cell")
        if cell not in rows:
            raise KernelError("cell %r still occurs in other columns" % (cell,))
        self.row_ops += 1
        p = self.p
        for beta in blockers:
            leave, keep = cols[cell], cols[beta]
            if self._yield_key(keep) < self._yield_key(leave):
                # the blocker's class dies first, so it leaves with the row
                self._set_column(cell, keep)
                self._set_column(beta, leave)
                leave, keep = keep, leave
                for slot, col in ((cell, leave), (beta, keep)):
                    if col.label == "H":
                        cols[col.partner].partner = slot
            c = -keep.chain[cell] * field_inv(leave.chain[cell], p)
            self._addmul(beta, leave.chain, c)
            if leave.label == "H":  # both are chains: keep boundary(H) = G
                self._addmul(keep.partner, cols[leave.partner].chain, c)
        if len(rows) != 1:  # the post-condition of the eliminations
            raise KernelError("cell %r still occurs in other columns" % (cell,))

        col = cols.pop(cell)
        for c in col.chain:
            occ[c].discard(cell)
        del occ[cell]
        if col.label == "F":
            return col.birth[1]
        partner = cols[col.partner]  # the G partner turns back into a cycle
        partner.label, partner.birth = "F", (-self.row_ops, block)
        partner.partner = None
        return None

    def unpair_update(self, tau, sigma, sigma_boundary, tau_cofacets):
        """Splice the freshly unpaired cells tau, sigma into the matrix.

        ``sigma_boundary`` is sigma's reduced boundary after unpairing, its
        tau coefficient the pair's incidence (``ZeroInverse`` before any
        write if that is 0); ``tau_cofacets`` is the reduced coboundary of
        tau.  Existing cycle and pairing columns are corrected so all
        invariants survive.  The two new rows tick ``row_ops`` by 2; the
        pair's sequence numbers in the complex must be consecutive.
        """
        for cell in (tau, sigma):
            if cell not in self.seq:
                raise KernelError("cell %r is not in the complex" % (cell,))
        tau_seq, sigma_seq = self.seq[tau], self.seq[sigma]
        if sigma_seq != tau_seq + 1:
            raise KernelError("pair (%r, %r) was not inserted consecutively"
                              % (tau, sigma))
        if tau in self.occ or sigma in self.occ:
            raise KernelError("pair (%r, %r) already has a row" % (tau, sigma))
        p = self.p
        below = [c for c in sigma_boundary if c != tau]
        above = [c for c in tau_cofacets if c != sigma]
        for c in below + above:
            if c not in self.occ:
                raise KernelError("chain cell %r has no row" % (c,))
        for c in below:
            if self.seq[c] >= tau_seq:
                raise KernelError("boundary cell %r sits above the spliced "
                                  "pair" % (c,))
        for c in above:
            if self.seq[c] <= sigma_seq:
                raise KernelError("cofacet %r sits below the spliced pair"
                                  % (c,))
        scale = -field_inv(sigma_boundary.get(tau, 0), p) % p
        self.row_ops += 2
        self.occ[tau], self.occ[sigma] = set(), set()

        for slot in set().union(*(self.occ[c] for c in above)):
            col = self.cols[slot]
            if col.label == "G":
                continue
            s = sum(tau_cofacets[c] * col.chain.get(c, 0) for c in above) % p
            if not s:
                continue
            self._addmul(slot, {sigma: 1}, scale * s)

        g_chain = {c: v % p for c, v in sigma_boundary.items() if v % p}
        self._set_column(tau, Column(g_chain, "G", partner=sigma))
        self._set_column(sigma, Column({sigma: 1}, "H", partner=tau))
