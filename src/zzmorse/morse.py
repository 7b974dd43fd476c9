"""Morse matchings and the reduced boundary/coboundary they induce.

A matching splits cells into critical cells A, queue cells Q, and king cells
K, with a bijection pairing each queue cell to a king cell one dimension up.
Matchings are built by coreduction and queried through gradient-path
traversal: the reduced incidence of two critical cells is the signed sum over
alternating paths between them, which a memoized sweep of the Hasse diagram
computes without materializing paths.

The memo of downward flows (non-critical cell -> the chain of criticals it
reaches) can outlive a single query.  A cell's downward flow depends only on
its downward closure and the pairing there, so the streaming engine keeps
one memo for a whole run: inserting cells leaves every entry valid, a
removed cell takes only its own entry with it (removals take maximal cells,
so no live entry reaches it), and the single event that invalidates entries
is ``Matching.unpair``.  Before it, the pair's two entries go, and so, up
through the pairs, do those of the queue cells whose paths reach it: a queue
cell's flow reads only its king's other facets.  Upward flows change
whenever a cofacet is inserted, so ``morse_coboundary`` always starts fresh.
"""

import heapq

from .cells import chain_addmul, field_inv
from .errors import CyclicMatching, NotCritical, UnknownCell


class Matching:
    """Partial pairing of cells with the leftover marked critical."""

    def __init__(self):
        self.critical = set()
        self.pair_up = {}    # queue cell -> its king
        self.pair_down = {}  # king cell -> its queue cell

    def add_pair(self, tau, sigma):
        self.pair_up[tau] = sigma
        self.pair_down[sigma] = tau

    def unpair(self, tau):
        """Turn the pair (tau, king) into two critical cells."""
        sigma = self.drop_pair(tau)
        self.critical.add(tau)
        self.critical.add(sigma)

    def drop_pair(self, tau):
        sigma = self.pair_up.pop(tau)
        del self.pair_down[sigma]
        return sigma


# ---------------------------------------------------------------------------
# coreduction
# ---------------------------------------------------------------------------

def coreduce(records):
    """Build a matching on the cells of ``records`` by coreduction.

    ``records`` maps each cell to ``(dim, boundary)``.  Repeatedly pairs the
    lowest (dim, id) cell with one unmatched facet to that facet, or else
    makes the lowest (dim, id) unmatched cell critical.  Facets outside
    ``records`` count as matched, so pairs never leave the records and a
    block can be matched before it enters the complex.  ``pair_up`` lists
    the pairs in the order they formed, as ``stream.atomize_forward`` needs.
    """
    free = {}  # unmatched cell -> its number of unmatched facets in records
    inner_cofacets = {}
    pairable = []  # heap of (dim, cell) whose count reached 1; may go stale
    for cell, (dim, bnd) in records.items():
        n = 0
        for facet in bnd:
            if facet in records:
                n += 1
                inner_cofacets.setdefault(facet, []).append(cell)
        free[cell] = n
        if n == 1:
            pairable.append((dim, cell))
    out = Matching()
    heapq.heapify(pairable)
    # a cell never returns to free, so one pass over the (dim, id) order,
    # resumed where the last critical was found, reads it like a heap
    fallback = iter(sorted([(dim, c) for c, (dim, _) in records.items()]))

    while free:
        if pairable:
            _, sigma = heapq.heappop(pairable)
            if free.get(sigma) != 1:
                continue
            for tau in records[sigma][1]:
                if tau in free:
                    break
            out.pair_up[tau], out.pair_down[sigma] = sigma, tau
            taken = (tau, sigma)
        else:
            for _, cell in fallback:
                if cell in free:
                    break
            out.critical.add(cell)
            taken = (cell,)
        for cell in taken:
            del free[cell]
            for cof in inner_cofacets.get(cell, ()):
                n = free.get(cof)
                if n is not None:
                    free[cof] = n - 1
                    if n == 2:
                        heapq.heappush(pairable, (records[cof][0], cof))
    return out


# ---------------------------------------------------------------------------
# gradient-path traversal
# ---------------------------------------------------------------------------

def _flow(adj, pairs, critical, dead, seeds, p, memo=None):
    """Accumulated path coefficients from a seed chain down (or up) to criticals.

    ``adj`` is ``cx.facets`` (downward flow) or ``cx.cofacets`` (upward);
    a path steps from a cell to its pairing mate ``pairs[cell]`` and on to
    the mate's other neighbours ``adj[mate]``, with incidences read as
    ``adj[mate][nxt]``.  ``critical`` cells end a path with coefficient 1
    and ``dead`` cells (the far side of a pair) end it with nothing.

    ``memo`` maps a non-critical cell to its own flow, the chain of
    criticals it reaches.  A dead cell's entry is ``{}``: it stays in the
    memo, and a path that reaches it adds nothing and makes no call.  A
    critical cell adds its coefficient straight into the chain being built
    and gets no entry.  The memo is filled in place and may be passed in
    pre-filled: the flow of a cell depends only on the cells below (or
    above) it and their pairing, so an entry stays valid while neither
    changes.  The returned chain is always a fresh dict.  Raises
    CyclicMatching if the traversal revisits an in-progress cell.
    """
    if memo is None:
        memo = {}
    expanded = None
    total = {}
    for seed, coeff in seeds.items():
        if seed in critical:
            v = (total.get(seed, 0) + coeff) % p
            if v:
                total[seed] = v
            else:
                total.pop(seed, None)
            continue
        flow = memo.get(seed)
        if flow is None:
            if expanded is None:
                expanded = set()
            stack = [seed]
            while stack:
                cell = stack[-1]
                if cell in memo:
                    stack.pop()
                    continue
                if cell in dead:
                    memo[cell] = {}
                    stack.pop()
                    continue
                if cell not in pairs:
                    raise UnknownCell("cell %r is not covered by the matching"
                                      % (cell,))
                links = adj[pairs[cell]]
                deps = [n for n in links
                        if n != cell and n not in memo and n not in critical]
                if cell not in expanded:
                    expanded.add(cell)
                    if deps:
                        for d in deps:
                            if d in expanded:
                                raise CyclicMatching(
                                    "gradient path loops at %r" % (d,))
                        stack.extend(deps)
                        continue
                elif deps:
                    raise CyclicMatching("gradient path loops at %r"
                                         % (cell,))
                scale = -field_inv(links[cell], p)
                acc = {}
                for nxt, weight in links.items():
                    if nxt == cell:
                        continue
                    if nxt in critical:  # chain_addmul of {nxt: 1}, written out
                        v = (acc.get(nxt, 0) + scale * weight) % p
                        if v:
                            acc[nxt] = v
                        else:
                            acc.pop(nxt, None)
                    else:
                        flow = memo[nxt]
                        if flow:  # a dead king's {} adds nothing
                            chain_addmul(acc, flow, scale * weight, p)
                memo[cell] = acc
                stack.pop()
            flow = memo[seed]
        if flow:
            chain_addmul(total, flow, coeff, p)
    return total


def morse_boundary(cx, matching, nu, memo=None):
    """Chain of critical facet-level cells reachable from the critical cell nu.

    ``memo`` is an optional downward-flow memo (see ``_flow``) shared
    between calls.  The caller keeps it valid: inserting cells never
    invalidates it, removed cells' entries are dropped, and before
    ``Matching.unpair`` splits a pair, the pair's entries and every entry
    whose paths reach them must go (``stream.apply_atomic`` does this).
    """
    if nu not in matching.critical:
        raise NotCritical(repr(nu))
    return _flow(cx.facets, matching.pair_up, matching.critical,
                 matching.pair_down, cx.facets[nu], cx.p, memo)


def morse_coboundary(cx, matching, tau):
    """Chain of critical cofacet-level cells with nonzero reduced incidence onto tau.

    Always starts a fresh memo: upward flows change whenever a cofacet is
    inserted.
    """
    if tau not in matching.critical:
        raise NotCritical(repr(tau))
    return _flow(cx.cofacets, matching.pair_down, matching.critical,
                 matching.pair_up, cx.cofacets[tau], cx.p)
