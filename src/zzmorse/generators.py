"""Zigzag stream generators.

Two applications drive the engine: oscillating Rips zigzags over point
clouds (grow the scale when a point arrives, shrink it afterwards) and
levelset zigzags of scalar images (slide a value window upward).  Both
emit ``BlockOp`` streams that start and end at the empty complex, plus a
parallel list of scale annotations, one per block.  A seeded random-stream
generator for differential testing against the oracle lives here too.
"""

import math
import numbers
import operator
import random
from itertools import combinations

import numpy as np

from .cells import (check_prime, cube_dim, cube_facets, cube_vertices,
                    iter_cubes, simplex_facets)
from .errors import (BadParameters, CountMismatch, EmptyCloud, EmptyDims,
                     NonMonotoneLevels, RaggedRow)
from .linalg import boundary_matrix, nullspace
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

def _cliques(d2, count, thr2, max_verts):
    """Simplices on points 0..count-1 of squared diameter <= thr2 -> diam2."""
    adj = {v: set() for v in range(count)}
    for a, b in combinations(range(count), 2):
        if d2[a, b] <= thr2:
            adj[a].add(b)
            adj[b].add(a)
    out = {}

    def grow(simplex, diam2, cand):
        for idx, w in enumerate(cand):
            nd = diam2
            for u in simplex:
                duw = d2[u, w]
                if duw > nd:
                    nd = duw
            s = simplex + (w,)
            out[s] = nd
            if len(s) < max_verts:
                grow(s, nd, [u for u in cand[idx + 1:] if u in adj[w]])

    for v in range(count):
        out[(v,)] = 0.0
        if max_verts > 1:
            grow((v,), 0.0, sorted(u for u in adj[v] if u > v))
    return out


def oscillating_rips_stream(points, mu, nu, max_dim=2, start=0):
    """Blocks growing the Rips scale at each new point, then shrinking it.

    At step i (radii eps from the furthest-point ordering) the complex
    grows to scale nu*eps[i] over the first i+2 points, then shrinks to
    min(mu*eps[i], nu*eps[i+1]) so the next growth is an inclusion; a
    final backward block tears everything down.  Returns (blocks, scales)
    with one scale annotation per block.
    """
    mu, nu = _real("mu", mu), _real("nu", nu)
    if not 0 < mu <= nu:
        raise BadParameters("scale factors must satisfy 0 < mu <= nu")
    max_dim = _integer("max_dim", max_dim, 0)
    pts = as_point_cloud(points)
    order, eps = furthest_point_ordering(pts, start)
    d2 = _pairwise_sq(pts[np.array(order)])
    n = len(order)
    blocks = []
    scales = []
    live = {}  # simplex (position tuple) -> squared diameter

    def forward_to(count, scale):
        target = _cliques(d2, count, scale * scale, max_dim + 1)
        new = sorted((s for s in target if s not in live),
                     key=lambda s: (len(s), s))
        cells = [ForwardCell(s, len(s) - 1, simplex_facets(s)) for s in new]
        live.update((s, target[s]) for s in new)
        blocks.append(BlockOp("F", cells))
        scales.append(scale)

    def backward_to(scale):
        thr2 = scale * scale
        gone = sorted((s for s, diam2 in live.items() if diam2 > thr2),
                      key=lambda s: (-len(s), s))
        for s in gone:
            del live[s]
        blocks.append(BlockOp("B", gone))
        scales.append(scale)

    forward_to(1, mu * eps[0] if eps else 0.0)
    for i in range(n - 1):
        forward_to(i + 2, nu * eps[i])
        if i + 1 < n - 1:
            backward_to(min(mu * eps[i], nu * eps[i + 1]))
        else:
            backward_to(mu * eps[i])
    blocks.append(BlockOp("B", sorted(live, key=lambda s: (-len(s), s))))
    scales.append(0.0)
    live.clear()
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
    cubes = iter_cubes(image.dims)
    lo = {}
    hi = {}
    for cube in cubes:
        vals = [image.values[v] for v in cube_vertices(cube)]
        lo[cube] = min(vals)
        hi[cube] = max(vals)

    live = set()
    blocks = []
    scales = []

    def forward_to(a, b, scale):
        new = [c for c in cubes
               if c not in live and a <= lo[c] and hi[c] <= b]
        cells = [ForwardCell(c, cube_dim(c), cube_facets(c)) for c in new]
        live.update(new)
        blocks.append(BlockOp("F", cells))
        scales.append(scale)

    def backward_to(a, b, scale):
        gone = sorted((c for c in live if not (a <= lo[c] and hi[c] <= b)),
                      key=lambda c: (-cube_dim(c), c))
        live.difference_update(gone)
        blocks.append(BlockOp("B", gone))
        scales.append(scale)

    forward_to(s[0], s[1], s[1])
    for i in range(1, len(s) - 1):
        forward_to(s[i - 1], s[i + 1], s[i + 1])
        backward_to(s[i], s[i + 1], s[i])
    blocks.append(BlockOp("B", sorted(live, key=lambda c: (-cube_dim(c), c))))
    scales.append(s[-1])
    live.clear()
    return blocks, scales


MAX_LEVELS = 10 ** 6


def even_levels(image, spacing):
    """Evenly spaced levels covering the image's value range, at most
    ``MAX_LEVELS`` steps of them (``BadParameters`` otherwise)."""
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
    return [vmin + j * spacing for j in range(count + 1)]


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

def _random_cycle(state, q, p, rng):
    """A random nonzero mod-p cycle among the q-cells of ``state``, or None."""
    cells = sorted(c for c, (d, _) in state.items() if d == q)
    if not cells:
        return None
    below = sorted(c for c, (d, _) in state.items() if d == q - 1)
    kernel = nullspace(boundary_matrix(state, below, cells), p)
    if kernel.shape[1] == 0:
        return None
    for _ in range(8):
        weights = [rng.randrange(p) for _ in range(kernel.shape[1])]
        vec = kernel @ np.array(weights, dtype=np.int64) % p
        if vec.any():
            return {cells[i]: int(vec[i]) for i in range(len(cells)) if vec[i]}
    return None


def _maximal_cells(state):
    covered = set()
    for _, bnd in state.values():
        covered.update(bnd)
    return sorted(c for c in state if c not in covered)


def random_block_stream(rng, p=2, max_live=12, max_arrows=30, max_dim=3):
    """Random valid zigzag stream as blocks of ``("i", cell, dim, boundary)``
    or ``("r", cell)`` ops, for ``blocks_to_stream``.

    ``rng`` is a random.Random instance or an integer seed.  Consecutive
    ops of one kind are grouped into blocks of random length; the stream
    always tears down to the empty complex at the end.
    """
    p = check_prime(p)
    max_live = _integer("max_live", max_live, 1)
    max_arrows = _integer("max_arrows", max_arrows, 4)
    max_dim = _integer("max_dim", max_dim, 0)
    if not isinstance(rng, random.Random):
        rng = random.Random(_integer("seed", rng))
    state = {}
    next_id = [0]
    ops = []

    def insert():
        dim = rng.randint(0, max_dim)
        bnd = {} if dim == 0 else _random_cycle(state, dim - 1, p, rng)
        if dim > 0 and bnd is None:
            dim, bnd = 0, {}
        cell = next_id[0]
        next_id[0] += 1
        state[cell] = (dim, bnd)
        ops.append(("i", cell, dim, bnd))

    def remove():
        cell = rng.choice(_maximal_cells(state))
        del state[cell]
        ops.append(("r", cell))

    budget = rng.randint(4, max_arrows)
    while len(ops) < budget - len(state):
        if not state:
            insert()
        elif len(state) >= max_live:
            remove()
        else:
            insert() if rng.random() < 0.6 else remove()
    while state:
        remove()

    blocks = []
    i = 0
    while i < len(ops):
        kind = ops[i][0]
        j = i
        limit = rng.randint(1, 4)
        while j < len(ops) and ops[j][0] == kind and j - i < limit:
            j += 1
        blocks.append(ops[i:j])
        i = j
    return blocks


def blocks_to_stream(blocks):
    """Op blocks -> the BlockOp stream that ``run_stream`` and the oracle read."""
    out = []
    for block in blocks:
        if block[0][0] == "i":
            out.append(BlockOp("F", [ForwardCell(cell, dim, bnd)
                                     for _, cell, dim, bnd in block]))
        else:
            out.append(BlockOp("B", [cell for _, cell in block]))
    return out
