"""Shared helpers: small complexes, random streams for differential
testing, and a matching acyclicity check."""

import random
import re

from zzmorse.cells import Complex, simplex_facets
from zzmorse.errors import UnknownCell
from zzmorse.generators import (_random_cycle, blocks_to_stream,
                                random_block_stream)

random_block_ops = random_block_stream

# verdict details registered by tests/test_acceptance.py, printed at the end
ACCEPTANCE = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"),
                         ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          getattr(rep, "nodeid", ""))
            if m:
                key = int(m.group(1))
                if verdicts.get(key) != "FAIL":
                    verdicts[key] = word
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(verdicts):
        note = ACCEPTANCE.get(k)
        terminalreporter.write_line(
            "criterion %d: %s%s" % (k, verdicts[k],
                                    " (%s)" % note if note else ""))


def build_simplicial(simplices, p=2):
    """Complex of a face-closed list of sorted vertex tuples.

    The tuple -> CellId map is left on the result as ``simplex_ids``.
    """
    cx = Complex(p)
    ids = {}
    for s in sorted(set(map(tuple, simplices)), key=lambda s: (len(s), s)):
        ids[s] = cx.insert_cell(len(s) - 1, {ids[f]: sign for f, sign
                                             in simplex_facets(s).items()})
    cx.simplex_ids = ids
    return cx


def full_triangle(p=2):
    """The filled triangle on vertices 1, 2, 3."""
    return build_simplicial([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
                             (1, 2, 3)], p)


def check_mirrors(cx):
    """Assert that the facet and cofacet maps of cx mirror each other."""
    down = {(c, f, k) for c, bd in cx.facets.items() for f, k in bd.items()}
    up = {(c, f, k) for f, cb in cx.cofacets.items() for c, k in cb.items()}
    assert down == up


def random_complex(rng, p=2, n=10, max_dim=3):
    """A random small complex grown by inserting random cycles as boundaries."""
    cx = Complex(p=p)
    for _ in range(n):
        dim = rng.randint(0, max_dim)
        state = {c: (cx.dims[c], cx.facets[c]) for c in cx.dims}
        bnd = {} if dim == 0 else _random_cycle(state, dim - 1, p, rng)
        if bnd is None:
            dim, bnd = 0, {}
        cx.insert_cell(dim, bnd)
    return cx


def grow_records(rng, cx, k, max_dim=3):
    """Records for k new cells stacked on cx, possibly referencing each other."""
    state = {c: (cx.dims[c], cx.facets[c]) for c in cx.dims}
    records = {}
    for _ in range(k):
        dim = rng.randint(0, max_dim)
        bnd = {} if dim == 0 else _random_cycle(state, dim - 1, cx.p, rng)
        if bnd is None:
            dim, bnd = 0, {}
        cid = cx.fresh_id()
        state[cid] = (dim, bnd)
        records[cid] = (dim, bnd)
    return records


def cell_records(cx, cells=None):
    """``{cell: (dim, boundary)}`` for the given cells of cx (default: all)."""
    if cells is None:
        cells = cx.dims
    return {c: (cx.dims[c], cx.facets[c]) for c in cells}


def make_rng(seed):
    return random.Random(seed)


def is_acyclic_matching(cx, matching):
    """True iff the matching's oriented Hasse diagram has no directed cycle.

    Any cycle must alternate queue and king cells, so it suffices to search
    the digraph on queue cells with an edge tau -> tau' when tau' is another
    facet of tau's king.
    """
    for tau in matching.pair_up:
        if tau not in cx.dims or matching.pair_up[tau] not in cx.dims:
            raise UnknownCell("matching references a missing cell")

    WHITE, GRAY, DONE = 0, 1, 2
    color = {}

    def neighbours(tau):
        for facet in cx.facets[matching.pair_up[tau]]:
            if facet != tau and facet in matching.pair_up:
                yield facet

    for root in matching.pair_up:
        if color.get(root, WHITE) != WHITE:
            continue
        stack = [(root, iter(neighbours(root)))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    return False
                if state == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(neighbours(nxt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = DONE
                stack.pop()
    return True
