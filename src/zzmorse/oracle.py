"""Brute-force zigzag interval decomposition for small instances.

This module is the ground truth the streaming engine is tested against.  It
replays a block stream into explicit complex snapshots, computes homology
spaces and inclusion-induced maps by dense mod-p linear algebra, and
decomposes the resulting module into intervals.  It deliberately shares no
code with the Morse engine or the streaming kernel beyond field arithmetic,
the plain ``cells.Complex`` and the door every stream passes
(``cells.read_stream``, ``read_block``, ``translate_forward``,
``translate_backward``).

A stream is what ``run_stream`` reads: blocks ``("F", [(cell, dim,
{facet: coeff}), ...])`` that insert cells and ``("B", [cell, ...])`` that
remove them, as BlockOps or plain tuples.  Cell names may be any hashables,
of mixed types too: the door maps them to int ids.  The door always checks
that each boundary is a cycle, so the oracle refuses what ``run_stream``
refuses with ``validate=True``, with the same error and message.
"""

import numpy as np

from .cells import (Complex, check_prime, read_block, read_stream,
                    translate_backward, translate_forward)
from .errors import BadParameters, InvalidOp, TooLarge
from .linalg import (MAX_PRIME, boundary_matrix, nullspace, rank_mod, rref,
                     solve_in_span)

MAX_CELLS = 200


def _check_field(p):
    """p as an int; BadParameters unless a prime the dense algebra can take."""
    p = check_prime(p)
    if p > MAX_PRIME:
        raise BadParameters("field characteristic %d is above %d, the oracle's "
                            "bound for exact int64 products" % (p, MAX_PRIME))
    return p


# ---------------------------------------------------------------------------
# snapshot homology
# ---------------------------------------------------------------------------

class _SnapshotHomology:
    """Cycle and boundary bases of one snapshot in one dimension."""

    def __init__(self, state, q, p):
        self.p = p
        self.cells = [c for c, (d, _) in state.items() if d == q]
        self.index = {c: i for i, c in enumerate(self.cells)}
        below = [c for c, (d, _) in state.items() if d == q - 1]
        above = [c for c, (d, _) in state.items() if d == q + 1]
        bd_q = boundary_matrix(state, below, self.cells)
        bd_up = boundary_matrix(state, self.cells, above)
        cycles = nullspace(bd_q, p)
        stacked = np.hstack([bd_up, cycles])
        _, pivots = rref(stacked, p)
        nb = bd_up.shape[1]
        reps = cycles[:, [j - nb for j in pivots if j >= nb]]
        self.reps = reps
        self.nb = nb
        self.basis = np.hstack([bd_up, reps])
        self.dim = reps.shape[1]

    def express(self, vectors):
        """Homology coordinates of cycle columns given over self.cells."""
        if self.dim == 0:
            return np.zeros((0, vectors.shape[1]), dtype=np.int64)
        return solve_in_span(self.basis, vectors, self.p)[self.nb:]


def _induced_map(small, big):
    """Matrix of the inclusion-induced map H(small) -> H(big)."""
    lifted = np.zeros((len(big.cells), small.dim), dtype=np.int64)
    for j in range(small.dim):
        for i, c in enumerate(small.cells):
            if small.reps[i, j]:
                lifted[big.index[c], j] = small.reps[i, j]
    return big.express(lifted)


# ---------------------------------------------------------------------------
# module construction
# ---------------------------------------------------------------------------

class ExplicitModule:
    """A zigzag of Z/p vector spaces with explicit matrices.

    ``spaces`` lists dimensions; ``maps[i]`` is ``(direction, matrix)`` where
    direction "fwd" maps space i to space i+1 and "bwd" maps space i+1 to
    space i (matrices are target-rows by source-columns).  ``p`` must be
    a prime up to ``linalg.MAX_PRIME`` (``BadParameters``) and each
    direction "fwd" or "bwd" (``InvalidOp``).
    """

    def __init__(self, spaces, maps, p):
        self.spaces = list(spaces)
        self.maps = list(maps)
        self.p = _check_field(p)
        if len(self.maps) != max(len(self.spaces) - 1, 0):
            raise InvalidOp("one map required between consecutive spaces")
        for i, (direction, mat) in enumerate(self.maps):
            if direction not in ("fwd", "bwd"):
                raise InvalidOp("map %d has direction %r, not 'fwd' or 'bwd'"
                                % (i, direction))
            src, dst = (i, i + 1) if direction == "fwd" else (i + 1, i)
            if mat.shape != (self.spaces[dst], self.spaces[src]):
                raise InvalidOp("map %d has shape %r, expected %r"
                                % (i, mat.shape, (self.spaces[dst], self.spaces[src])))


def _replay(blocks, p):
    """Arrow kinds and block-boundary states of a block stream.

    Each block passes the door with ``validate=True`` and goes into a plain
    ``Complex`` facets first, or leaves it cofacets first.  States are
    ``{cell: (dim, boundary)}`` dicts in the door's int ids: the empty one,
    then one after each block; an empty block is an identity arrow.
    """
    cx = Complex(p)
    alive = {}
    states = [{}]
    kinds = []
    for index, block in enumerate(read_stream(blocks), 1):
        direction, cells = read_block(block, index)
        if direction == "F":
            records, _ = translate_forward(cells, cx, alive, True)
            for cell, (dim, bd) in sorted(records.items(),
                                          key=lambda r: r[1][0]):
                cx.attach(cell, dim, bd)
        else:
            for cell in sorted(translate_backward(cells, cx, alive),
                               key=cx.dims.__getitem__, reverse=True):
                cx.remove_cell(cell)
        if len(cx.dims) > MAX_CELLS:
            raise TooLarge("state exceeds %d cells" % MAX_CELLS)
        kinds.append("fwd" if direction == "F" else "bwd")
        states.append({c: (d, cx.facets[c]) for c, d in cx.dims.items()})
    return kinds, states


def _module_over_states(kinds, states, dim, p):
    snaps = [_SnapshotHomology(s, dim, p) for s in states]
    maps = []
    for i, kind in enumerate(kinds):
        if kind == "fwd":
            maps.append(("fwd", _induced_map(snaps[i], snaps[i + 1])))
        else:
            maps.append(("bwd", _induced_map(snaps[i + 1], snaps[i])))
    return ExplicitModule([s.dim for s in snaps], maps, p)


# ---------------------------------------------------------------------------
# interval decomposition
# ---------------------------------------------------------------------------

def _section_basis(mod, lo, hi, offsets, total):
    """Basis of compatible families over the slice [lo, hi] (0-based spaces)."""
    p = mod.p
    crows = sum(mod.spaces[j + 1] if d == "fwd" else mod.spaces[j]
                for j, (d, _) in enumerate(mod.maps[lo:hi], start=lo))
    cons = np.zeros((crows, total), dtype=np.int64)
    r = 0
    for j in range(lo, hi):
        direction, mat = mod.maps[j]
        a, b = offsets[j - lo], offsets[j - lo + 1]
        if direction == "fwd":
            h = mod.spaces[j + 1]
            cons[r:r + h, a:a + mod.spaces[j]] = mat
            cons[r:r + h, b:b + h] = -np.eye(h, dtype=np.int64)
        else:
            h = mod.spaces[j]
            cons[r:r + h, b:b + mod.spaces[j + 1]] = mat
            cons[r:r + h, a:a + h] = -np.eye(h, dtype=np.int64)
        r += h
    return nullspace(cons % p, p)


def _full_rank(mod, b, d):
    """Rank of the canonical map lim -> colim of the slice [b, d] (1-based)."""
    if b == d:
        return mod.spaces[b - 1]
    if d == b + 1:
        return rank_mod(mod.maps[b - 1][1], mod.p)
    p = mod.p
    lo, hi = b - 1, d - 1
    dims = mod.spaces[lo:hi + 1]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = int(offsets[-1])
    sections = _section_basis(mod, lo, hi, offsets, total)
    relations = []
    for j in range(lo, hi):
        direction, mat = mod.maps[j]
        a, c = offsets[j - lo], offsets[j - lo + 1]
        src, dst = (a, c) if direction == "fwd" else (c, a)
        width = mat.shape[1]
        for k in range(width):
            vec = np.zeros(total, dtype=np.int64)
            vec[src + k] = 1
            vec[dst:dst + mat.shape[0]] = (vec[dst:dst + mat.shape[0]] - mat[:, k]) % p
            relations.append(vec)
    rel = (np.array(relations, dtype=np.int64).T if relations
           else np.zeros((total, 0), dtype=np.int64))
    images = np.zeros((total, sections.shape[1]), dtype=np.int64)
    images[:dims[0]] = sections[:dims[0]]
    _, pivots = rref(np.hstack([rel, images]), p)
    nrel = rel.shape[1]
    return len(pivots) - sum(1 for c in pivots if c < nrel)


def decompose_module(mod):
    """Interval multiset of an explicit module, as a sorted list of (b, d).

    Endpoints are 1-based space positions.  Multiplicities follow from the
    rank of the canonical limit-to-colimit map over every slice, which counts
    the intervals containing that slice; inclusion-exclusion over the four
    neighbouring slices isolates each exact endpoint pair.
    """
    n = len(mod.spaces)
    ranks = {}
    start = None
    for pos in range(1, n + 2):
        alive = pos <= n and mod.spaces[pos - 1] > 0
        if alive and start is None:
            start = pos
        elif not alive and start is not None:
            for b in range(start, pos):
                for d in range(b, pos):
                    ranks[(b, d)] = _full_rank(mod, b, d)
            start = None
    intervals = []
    for (b, d), r in ranks.items():
        mult = (r - ranks.get((b - 1, d), 0) - ranks.get((b, d + 1), 0)
                + ranks.get((b - 1, d + 1), 0))
        if mult < 0:
            raise ArithmeticError("negative multiplicity at (%d, %d)" % (b, d))
        intervals.extend([(b, d)] * mult)
    return sorted(intervals)


def block_diagram(blocks, p=2):
    """Oracle persistence diagram of a block stream: sorted (dim, b, d) triples.

    Interval endpoints are block indices: a class alive in the snapshots after
    blocks b..d is reported as [b, d].  The stream must end empty, and ``p``
    must be a prime up to ``linalg.MAX_PRIME`` (``BadParameters``).
    """
    p = _check_field(p)
    kinds, states = _replay(blocks, p)
    if states[-1]:
        raise InvalidOp("stream must end at the empty complex")
    top = max((d for s in states for d, _ in s.values()), default=-1)
    out = []
    for dim in range(top + 1):
        mod = _module_over_states(kinds, states, dim, p)
        for b, d in decompose_module(mod):
            out.append((dim, b - 1, d - 1))
    return sorted(out)
