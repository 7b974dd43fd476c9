"""Zigzag stream generators.

Two applications drive the engine: oscillating Rips zigzags over point
clouds (grow the scale when a point arrives, shrink it afterwards) and
levelset zigzags of scalar images (slide a value window upward).  Both
emit ``BlockOp`` streams that start and end at the empty complex, plus a
parallel list of scale annotations, one per block.  A seeded random-stream
generator for differential testing against the oracle lives here too.
"""

import heapq
import math
import numbers
import operator
import random

import numpy as np

from .cells import (chain_addmul, check_prime, cube_facets, field_inv,
                    simplex_facets)
from .errors import (BadParameters, CountMismatch, EmptyCloud, EmptyDims,
                     NonMonotoneLevels, RaggedRow)
from .stream import BlockOp, ForwardCell


# -- parameters and point clouds ----------------------------------------------------

def _integer(name, value, low=-math.inf, high=math.inf):
    """value as an int in [low, high); raises BadParameters otherwise."""
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or not low <= v < high:
        raise BadParameters("%s must be an integer in [%s, %s), got %r"
                            % (name, low, high, value))
    return v


def _real(name, value, low=-math.inf):
    """value as a finite float above low; raises BadParameters otherwise."""
    if not (isinstance(value, numbers.Real) and low < value < math.inf):
        raise BadParameters("%s must be a finite real number above %s, got %r"
                            % (name, low, value))
    return float(value)


def as_point_cloud(points):
    """Points as an (n, d) float array; scalars are treated as 1-d points."""
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError:
        raise RaggedRow("points do not share one dimension") from None
    except TypeError:
        raise BadParameters("points must be real numbers, got %r"
                            % (points,)) from None
    if pts.ndim == 1 and pts.size:
        pts = pts[:, None]
    if pts.size == 0:
        raise EmptyCloud("point cloud is empty")
    if pts.ndim != 2:
        raise RaggedRow("points do not share one dimension")
    if pts.shape[1] > 16:
        raise BadParameters("point dimension %d exceeds 16" % pts.shape[1])
    if not np.isfinite(pts).all():
        raise BadParameters("point cloud has a non-finite coordinate")
    return pts


def _pairwise_sq(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return (diff * diff).sum(axis=-1)


def furthest_point_ordering(points, start=0):
    """Greedy furthest-point permutation and its insertion radii.

    Returns (order, eps) where eps[i] is the distance from the (i+1)-th
    chosen point to the already-chosen set; eps is nonincreasing.
    """
    pts = as_point_cloud(points)
    n = len(pts)
    start = _integer("start", start, 0, n)
    best = ((pts - pts[start]) ** 2).sum(axis=1)
    best[start] = -1.0
    order = [start]
    eps = []
    for _ in range(n - 1):
        nxt = int(np.argmax(best))
        eps.append(float(np.sqrt(best[nxt])))
        order.append(nxt)
        best = np.minimum(best, ((pts - pts[nxt]) ** 2).sum(axis=1))
        best[nxt] = -1.0
    return order, eps


# -- oscillating Rips zigzag --------------------------------------------------------

def oscillating_rips_stream(points, mu, nu, max_dim=2, start=0):
    """Blocks growing the Rips scale at each new point, then shrinking it.

    At step i (radii eps from the furthest-point ordering) the complex
    grows to scale nu*eps[i] over the first i+2 points, then shrinks to
    min(mu*eps[i], nu*eps[i+1]) so the next growth is an inclusion; a
    final backward block tears everything down.  Returns (blocks, scales)
    with one scale annotation per block.

    A simplex that enters more than once is emitted as the same
    ``ForwardCell`` object each time, facet dict included; two calls share
    no records.  Records are read-only: the engine and the oracle never
    modify them.
    """
    mu, nu = _real("mu", mu), _real("nu", nu)
    if not 0 < mu <= nu:
        raise BadParameters("scale factors must satisfy 0 < mu <= nu")
    max_dim = _integer("max_dim", max_dim, 0)
    pts = as_point_cloud(points)
    order, eps = furthest_point_ordering(pts, start)
    d2 = _pairwise_sq(pts[np.array(order)])
    n = len(order)
    max_verts = max_dim + 1
    blocks = []
    scales = []
    records = {}  # simplex (position tuple) -> its ForwardCell
    # The live complex is always the flag complex of its 1-skeleton, so the
    # cliques a forward block adds are exactly those holding a new vertex or
    # an admitted edge.  Vertices never leave before the final block.
    # After a backward block to scale s the live edges among old vertices
    # are exactly those with d2 <= s*s: every earlier forward block admitted
    # all edges up to its own scale, which is >= s as mu <= nu and the radii
    # do not increase.  So a forward block admits an old-old edge iff
    # floor2 < d2 <= thr2, and an edge at a new vertex iff d2 <= thr2.
    adj = []  # live 1-skeleton: position -> {live neighbour: squared length}
    floor2 = -1.0  # squared scale of the last backward block
    heap = []  # (-squared diameter, simplex) for every live simplex

    def grow(simplex, diam2, cand, new):
        # cliques simplex + S for S a nonempty clique within cand
        for idx, w in enumerate(cand):
            nd = diam2
            for u in simplex:
                duw = adj[u][w]
                if duw > nd:
                    nd = duw
            s = simplex + (w,)
            new[tuple(sorted(s))] = nd
            if len(s) < max_verts:
                grow(s, nd, [u for u in cand[idx + 1:] if u in adj[w]], new)

    def forward_to(count, scale):
        thr2 = scale * scale
        new = {}  # simplex -> squared diameter
        old = len(adj)
        for v in range(old, count):
            adj.append({})
            new[(v,)] = 0.0
        if max_verts > 1:
            block = d2[:count, :count]
            admitted = block <= thr2
            admitted[:old, :old] &= block[:old, :old] > floor2
            # Each new clique is counted once, from its highest-ranked
            # admitted edge: edges join the graph in index order, and each
            # one's cliques are found among the common neighbours it has
            # when it joins.
            edges = np.argwhere(np.triu(admitted, 1))
            for (a, b), ab in zip(edges.tolist(),
                                  block[edges[:, 0], edges[:, 1]].tolist()):
                adj[a][b] = adj[b][a] = ab
                new[(a, b)] = ab
                if max_verts > 2:
                    grow((a, b), ab, sorted(adj[a].keys() & adj[b]), new)
        cells = []
        # stable sorts by s, then len: (len(s), s) order without a key per tuple
        for s in sorted(sorted(new), key=len):
            rec = records.get(s)
            if rec is None:
                rec = records[s] = ForwardCell(s, len(s) - 1,
                                               simplex_facets(s))
            cells.append(rec)
            heapq.heappush(heap, (-new[s], s))
        blocks.append(BlockOp("F", cells))
        scales.append(scale)

    def backward_to(scale):
        nonlocal floor2
        floor2 = thr2 = scale * scale
        gone = []
        while heap and -heap[0][0] > thr2:
            s = heapq.heappop(heap)[1]
            gone.append(s)
            if len(s) == 2:
                a, b = s
                del adj[a][b], adj[b][a]
        gone.sort()
        blocks.append(BlockOp("B", sorted(gone, key=len, reverse=True)))
        scales.append(scale)

    forward_to(1, mu * eps[0] if eps else 0.0)
    for i in range(n - 1):
        forward_to(i + 2, nu * eps[i])
        if i + 1 < n - 1:
            backward_to(min(mu * eps[i], nu * eps[i + 1]))
        else:
            backward_to(mu * eps[i])
    blocks.append(BlockOp("B", sorted(sorted(s for _, s in heap), key=len,
                                      reverse=True)))
    scales.append(0.0)
    return blocks, scales


def circle_points(n, seed, jitter=0.3):
    """n points spread around the unit circle, spacing jittered by the seed."""
    n = _integer("point count", n)
    if n < 1:
        raise EmptyCloud("need at least one point")
    if _real("jitter", jitter) < 0:
        raise BadParameters("jitter must not be negative, got %r" % (jitter,))
    rng = np.random.default_rng(_integer("seed", seed, 0))
    ang = 2.0 * np.pi * np.arange(n) / n
    ang = ang + rng.uniform(-jitter, jitter, n) * (2.0 * np.pi / n)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


# -- scalar images and levelset zigzags ---------------------------------------------

def _extents(dims):
    """Image dims as three ints >= 1; BadParameters for a non-integer."""
    if not np.iterable(dims):
        raise BadParameters("image dims must be a sequence, got %r" % (dims,))
    dims = tuple(_integer("image extent", v) for v in dims)
    if len(dims) != 3 or any(v < 1 for v in dims):
        raise EmptyDims("image dims must be three positive extents, got %r"
                        % (dims,))
    return dims


class ScalarImage:
    """Finite scalar values on the vertices of an (nx, ny, nz) lattice."""

    def __init__(self, dims, values):
        dims = _extents(dims)
        try:
            vals = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise BadParameters("image values must be real numbers") from None
        want = dims[0] * dims[1] * dims[2]
        if vals.size != want:
            raise CountMismatch("expected %d values for dims %r, got %d"
                                % (want, dims, vals.size))
        if not np.isfinite(vals).all():
            raise BadParameters("image has a non-finite value")
        self.dims = dims
        self.values = vals.reshape(dims)


def levelset_stream(image, levels):
    """Blocks sliding a value window up through the image.

    The window widens from [s_i-1, s_i] to [s_i-1, s_i+1], then its floor
    lifts to [s_i, s_i+1]; a cube belongs to a window iff every vertex
    value does.  Forward blocks are annotated with the window's new
    ceiling, backward blocks with its new floor.  Returns (blocks, scales).
    """
    if not isinstance(image, ScalarImage):
        raise BadParameters("expected a ScalarImage, got %r" % (image,))
    s = list(levels) if np.iterable(levels) else []
    if (len(s) < 2 or not all(isinstance(v, numbers.Real) for v in s)
            or any(not a < b for a, b in zip(s, s[1:]))):
        raise NonMonotoneLevels("levels must be strictly increasing reals, "
                                "got %r" % (levels,))
    s = [float(v) for v in s]
    # Along each axis, doubled coordinate j spans vertices j // 2 and
    # (j + 1) // 2 (one vertex at even j, an interval's two ends at odd j),
    # so after all three axes lo and hi hold each cube's min and max vertex
    # value over the doubled grid of cube_facets.
    lo = hi = image.values
    for axis, n in enumerate(image.dims):
        j = np.arange(2 * n - 1)
        lo = np.minimum(lo.take(j // 2, axis), lo.take((j + 1) // 2, axis))
        hi = np.maximum(hi.take(j // 2, axis), hi.take((j + 1) // 2, axis))
    # Flat index i is cube coords[i] in C order, so stable sorts by dim and
    # by -dim give the (dim, cube) and (-dim, cube) orders.
    coords = np.indices(lo.shape).reshape(3, -1).T
    lo, hi = lo.ravel(), hi.ravel()
    dim = (coords % 2).sum(axis=1)
    up = np.argsort(dim, kind="stable")
    down = np.argsort(-dim, kind="stable")
    live = np.zeros(lo.size, dtype=bool)
    blocks = []
    scales = []

    def forward_to(a, b, scale):
        new = (a <= lo) & (hi <= b) & ~live
        live[new] = True
        idx = up[new[up]]
        cells = [ForwardCell(c, d, cube_facets(c)) for c, d in
                 zip(map(tuple, coords[idx].tolist()), dim[idx].tolist())]
        blocks.append(BlockOp("F", cells))
        scales.append(scale)

    def backward_to(gone, scale):
        live[gone] = False
        idx = down[gone[down]]
        blocks.append(BlockOp("B", list(map(tuple, coords[idx].tolist()))))
        scales.append(scale)

    forward_to(s[0], s[1], s[1])
    for i in range(1, len(s) - 1):
        forward_to(s[i - 1], s[i + 1], s[i + 1])
        backward_to(live & ~((s[i] <= lo) & (hi <= s[i + 1])), s[i])
    backward_to(live.copy(), s[-1])
    return blocks, scales


MAX_LEVELS = 10 ** 6


def even_levels(image, spacing):
    """Evenly spaced, strictly increasing levels from the image's minimum
    value to at least its maximum.  ``BadParameters`` for more than
    ``MAX_LEVELS`` steps, or for a spacing too fine to step the values'
    floats."""
    if not isinstance(image, ScalarImage):
        raise BadParameters("expected a ScalarImage, got %r" % (image,))
    spacing = _real("level spacing", spacing, 0)
    vmin = float(image.values.min())
    vmax = float(image.values.max())
    steps = (vmax - vmin) / spacing
    if not steps <= MAX_LEVELS:  # also refuses a range that overflows to inf
        raise BadParameters("level spacing %r gives more than %d steps"
                            % (spacing, MAX_LEVELS))
    count = max(1, int(np.ceil(steps)))
    levels = [vmin + j * spacing for j in range(count + 1)]
    while levels[-1] < vmax:  # rounding can leave the top level short
        levels.append(vmin + len(levels) * spacing)
    if any(not a < b for a, b in zip(levels, levels[1:])):
        raise BadParameters("level spacing %r is below the float resolution "
                            "of the image values" % (spacing,))
    return levels


def fourier_image(dims, seed, terms):
    """Seeded smooth test image: a random sum of sinusoids on the lattice.

    f(x) = sum of a_j * sin(2*pi*w_j.x + phi_j) with amplitudes in [-1, 1],
    integer frequencies of sup-norm <= 8 and phases in [0, 2*pi), over unit
    lattice coordinates.
    """
    dims = _extents(dims)
    terms = _integer("terms", terms, 0)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    amp = rng.uniform(-1.0, 1.0, terms)
    freq = rng.integers(-8, 9, (terms, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, terms)
    axes = [np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1) for n in dims]
    x, y, z = np.meshgrid(*axes, indexing="ij")
    vals = np.zeros(dims)
    for a, w, ph in zip(amp, freq, phase):
        vals += a * np.sin(2.0 * np.pi * (w[0] * x + w[1] * y + w[2] * z) + ph)
    return ScalarImage(dims, vals)


# -- random streams for differential testing ----------------------------------------

def _random_cycle_among(chains, p, rng):
    """A random nonzero mod-p cycle among the cells of ``chains``, or None.

    ``chains`` maps each candidate cell, in ascending order, to its
    boundary; facets must be comparable.  The boundaries are reduced one
    by one against the earlier ones.  A cell whose boundary reduces to zero
    gives the one kernel vector with coefficient 1 on it and support on it
    and the earlier cells that did not reduce to zero.  That is the basis
    vector ``linalg.nullspace`` reads off the reduced row echelon form for
    the cell's free column.  Each of at most 8 attempts draws one weight
    per basis vector, in cell order; a zero combination is drawn again.
    """
    pivots = {}  # top facet -> (reduced boundary, its combination of cells)
    kernel = []
    for cell, bnd in chains.items():
        col = chain_addmul({}, bnd, 1, p)
        comb = {cell: 1}
        while col:
            top = max(col)
            if top not in pivots:
                pivots[top] = col, comb
                break
            pcol, pcomb = pivots[top]
            f = -col[top] * field_inv(pcol[top], p)
            chain_addmul(col, pcol, f, p)
            chain_addmul(comb, pcomb, f, p)
        else:
            kernel.append(comb)
    if not kernel:
        return None
    for _ in range(8):
        vec = {}
        for cycle in kernel:
            chain_addmul(vec, cycle, rng.randrange(p), p)
        if vec:
            return {c: vec[c] for c in chains if c in vec}
    return None


def random_block_stream(rng, p=2, max_live=12, max_arrows=30, max_dim=3):
    """Random valid zigzag stream as a list of ``BlockOp``s.

    ``rng`` is a random.Random instance or an integer seed.  Cells get
    ids 0, 1, 2, ... in insertion order.  A new q-cell's boundary is a
    random nonzero cycle among the live (q-1)-cells taken in ascending id;
    a q-cell with no such cycle enters as a vertex instead.  Each removal
    picks one of the maximal live cells, listed in ascending id.
    Consecutive insertions (``ForwardCell``s) or removals (bare ids) are
    grouped into "F" or "B" blocks of random length; the stream always
    tears down to the empty complex at the end.
    """
    p = check_prime(p)
    max_live = _integer("max_live", max_live, 1)
    max_arrows = _integer("max_arrows", max_arrows, 4)
    max_dim = _integer("max_dim", max_dim, 0)
    if not isinstance(rng, random.Random):
        rng = random.Random(_integer("seed", rng))
    # Ids only grow, so insertion order is ascending id in every dict here.
    dims = {}  # live cell -> dim
    by_dim = {}  # dim -> {live cell of that dim: its boundary}
    cofacets = {}  # live cell -> number of live cells whose boundary has it
    next_id = [0]
    ops = []

    def insert():
        dim = rng.randint(0, max_dim)
        bnd = {} if dim == 0 else _random_cycle_among(by_dim.get(dim - 1, {}),
                                                      p, rng)
        if bnd is None:
            dim, bnd = 0, {}
        cell = next_id[0]
        next_id[0] += 1
        dims[cell] = dim
        by_dim.setdefault(dim, {})[cell] = bnd
        cofacets[cell] = 0
        for facet in bnd:
            cofacets[facet] += 1
        ops.append(ForwardCell(cell, dim, bnd))

    def remove():
        cell = rng.choice([c for c, n in cofacets.items() if not n])
        del cofacets[cell]
        for facet in by_dim[dims.pop(cell)].pop(cell):
            cofacets[facet] -= 1
        ops.append(cell)

    budget = rng.randint(4, max_arrows)
    while len(ops) < budget - len(dims):
        if not dims:
            insert()
        elif len(dims) >= max_live:
            remove()
        else:
            insert() if rng.random() < 0.6 else remove()
    while dims:
        remove()

    blocks = []
    i = 0
    while i < len(ops):
        forward = isinstance(ops[i], ForwardCell)
        j = i
        limit = rng.randint(1, 4)
        while (j < len(ops) and isinstance(ops[j], ForwardCell) == forward
               and j - i < limit):
            j += 1
        blocks.append(BlockOp("F" if forward else "B", ops[i:j]))
        i = j
    return blocks


# Only perfbench/workloads.py and perfbench/test_perfbench.py still call this.
blocks_to_stream = list
