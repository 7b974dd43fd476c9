"""Stream generators: orderings, Rips/levelset zigzags, synthetic images."""

import copy
import hashlib
import json
import random
from itertools import combinations, product

import numpy as np
import pytest

from conftest import make_rng, random_cycle
from zzmorse.cells import cube_facets
from zzmorse.errors import (BadParameters, CountMismatch, EmptyCloud,
                            EmptyDims, NonMonotoneLevels, RaggedRow)
from zzmorse.generators import (ScalarImage, _random_cycle_among,
                                as_point_cloud, circle_points, even_levels,
                                fourier_image, furthest_point_ordering,
                                levelset_stream, oscillating_rips_stream,
                                random_block_stream)
from zzmorse.kernel import run_stream
from zzmorse.linalg import boundary_matrix, nullspace
from zzmorse.oracle import block_diagram
from zzmorse.stream import BlockOp, ForwardCell


# -- furthest-point ordering ---------------------------------------------------------

def test_collinear_ordering_picks_the_far_end_first():
    order, eps = furthest_point_ordering([[0.0], [1.0], [2.0]])
    assert order == [0, 2, 1]
    assert eps == [2.0, 1.0]


def test_single_point_has_no_radii():
    order, eps = furthest_point_ordering([[3.0, 4.0]])
    assert order == [0]
    assert eps == []


def test_duplicate_points_reach_radius_zero():
    order, eps = furthest_point_ordering([[0.0], [0.0]])
    assert order == [0, 1]
    assert eps == [0.0]


def test_radii_never_increase():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(40, 3))
    _, eps = furthest_point_ordering(pts)
    assert all(a >= b for a, b in zip(eps, eps[1:]))


def test_empty_cloud_is_rejected():
    with pytest.raises(EmptyCloud):
        furthest_point_ordering([])


def test_ragged_points_are_rejected():
    with pytest.raises(RaggedRow):
        as_point_cloud([[0.0], [1.0, 2.0]])


def test_oversized_point_dimension_is_rejected():
    with pytest.raises(BadParameters):
        as_point_cloud(np.zeros((3, 17)))


# -- Rips thresholds ------------------------------------------------------------------

def forward_records(blocks):
    return [c for b in blocks if b.direction == "F" for c in b.cells]


def forward_cells(blocks):
    return [c.cell for c in forward_records(blocks)]


def test_distant_points_stay_disconnected():
    blocks, _ = oscillating_rips_stream([[0.0], [1.0]], 0.5, 0.5)
    assert forward_cells(blocks) == [(0,), (1,)]


def test_threshold_is_inclusive():
    # the edge is exactly as long as the scale nu * eps[0] = mu * eps[0] = 1
    blocks, scales = oscillating_rips_stream([[0.0], [1.0]], 1, 1)
    assert scales[1:3] == [1.0, 1.0]
    assert forward_cells(blocks) == [(0,), (1,), (0, 1)]
    assert blocks[2].cells == []


def test_three_close_points_make_a_filled_triangle():
    pts = [[0.0], [0.4], [0.9]]
    for max_dim, cells in ((2, 7), (1, 6)):
        blocks, _ = oscillating_rips_stream(pts, 10, 10, max_dim)
        assert len(blocks[-1].cells) == cells
        assert ((0, 1, 2) in blocks[-1].cells) == (max_dim == 2)


# -- oscillating Rips zigzag ----------------------------------------------------------

def test_two_point_stream_is_the_worked_example():
    blocks, scales = oscillating_rips_stream([[0.0], [1.0]], 1, 2)
    assert scales == [1.0, 2.0, 1.0, 0.0]
    assert [(b.direction, len(b.cells)) for b in blocks] == [
        ("F", 1), ("F", 2), ("B", 0), ("B", 3)]
    assert [c.cell for c in blocks[0].cells] == [(0,)]
    assert [c.cell for c in blocks[1].cells] == [(1,), (0, 1)]
    assert blocks[3].cells == [(0, 1), (0,), (1,)]
    intervals, _ = run_stream(blocks, validate=True)
    assert [tuple(i) for i in intervals] == [(0, 1, 3)]


def test_single_point_stream():
    blocks, scales = oscillating_rips_stream([[2.0, 7.0]], 1, 1)
    assert [(b.direction, len(b.cells)) for b in blocks] == [("F", 1), ("B", 1)]
    intervals, _ = run_stream(blocks, validate=True)
    assert [tuple(i) for i in intervals] == [(0, 1, 1)]


def test_coincident_points_survive_scale_zero():
    blocks, _ = oscillating_rips_stream([[0.0], [0.0]], 1, 2)
    intervals, _ = run_stream(blocks, validate=True)
    assert [tuple(i) for i in intervals] == [(0, 1, 3)]


def test_scale_factor_order_is_enforced():
    with pytest.raises(BadParameters):
        oscillating_rips_stream([[0.0], [1.0]], 2, 1)
    with pytest.raises(BadParameters):
        oscillating_rips_stream([[0.0], [1.0]], 0, 1)


def replay_against_diameters(pts, mu, nu, max_dim=2):
    """Check every block's cells against independently computed diameters.

    A forward block over the first k points must hold exactly the
    simplices of the flag complex at its scale that are not live, sorted
    by (dim, vertices); a backward block exactly the live simplices above
    its scale (all of them in the last block), sorted by (-dim, vertices).
    """
    blocks, scales = oscillating_rips_stream(pts, mu, nu, max_dim)
    order, _ = furthest_point_ordering(pts)
    q = as_point_cloud(pts)[np.array(order)]
    d2 = ((q[:, None, :] - q[None, :, :]) ** 2).sum(-1)

    def diam2(s):
        return max((d2[a, b] for a, b in combinations(s, 2)), default=0.0)

    live = set()
    k = 0
    for i, (block, scale) in enumerate(zip(blocks, scales)):
        thr2 = scale * scale
        if block.direction == "F":
            k += 1
            new = [c.cell for c in block.cells]
            assert new == sorted(new, key=lambda s: (len(s), s))
            assert all(c.dim == len(c.cell) - 1 for c in block.cells)
            assert not live.intersection(new)
            flag = {s for m in range(1, max_dim + 2)
                    for s in combinations(range(k), m) if diam2(s) <= thr2}
            assert set(new) == flag - live
            live.update(new)
        else:
            assert block.cells == sorted(block.cells,
                                         key=lambda s: (-len(s), s))
            gone = set(block.cells)
            if i < len(blocks) - 1:
                assert gone == {s for s in live if diam2(s) > thr2}
            else:
                assert gone == live
            live -= gone
    assert k == len(order)
    assert not live
    return blocks, scales


@pytest.mark.parametrize("seed", range(4))
def test_blocks_realize_the_scale_thresholds_exactly(seed):
    rng = np.random.default_rng(100 + seed)
    pts = rng.uniform(size=(6, 2))
    replay_against_diameters(pts, 1.0, 1.4)


def test_equal_factors_remove_the_band_between_scales():
    rng = np.random.default_rng(9)
    pts = rng.uniform(size=(7, 2))
    blocks, scales = replay_against_diameters(pts, 1.5, 1.5)
    assert [b.direction for b in blocks[:5]] == ["F", "F", "B", "F", "B"]


@pytest.mark.parametrize("pts, mu, nu, max_dim", [
    (np.random.default_rng(11).uniform(size=(12, 2)), 1.0, 1.4, 2),
    (np.random.default_rng(12).uniform(size=(12, 3)), 1.2, 1.8, 3),
    (circle_points(8, 1, jitter=0.0), 2, 3, 3),
    ([[x, y] for x in range(4) for y in range(3)], 1.0, 1.5, 3),
    ([[0.0], [0.0], [0.0]], 1, 2, 2),
], ids=["random-12", "random-12-dim3", "circle-ties", "lattice-ties",
        "coincident"])
def test_forward_blocks_are_the_new_flag_simplices(pts, mu, nu, max_dim):
    replay_against_diameters(pts, mu, nu, max_dim)


def stream_digest(blocks, scales):
    """sha256 of a stream: cells, dims, facet dicts in order, scales."""
    def record(c):
        return [list(c.cell), c.dim,
                [[list(f), k] for f, k in c.boundary.items()]]
    rows = [[b.direction, [record(c) if b.direction == "F" else list(c)
                           for c in b.cells]] for b in blocks]
    return hashlib.sha256(json.dumps([rows, scales]).encode()).hexdigest()


# Digests of the streams of the clique-enumerating generator this one
# replaced; the output must stay byte-identical.
@pytest.mark.parametrize("pts, mu, nu, max_dim, start, digest", [
    (circle_points(150, seed=7), 4, 6, 2, 0, "4cadc9e302fc0ec2"),
    (circle_points(150, seed=7), 4, 6, 2, 7, "7abfe5439df7a4c7"),
    (circle_points(40, seed=1), 4, 6, 0, 0, "7d334883aaaaa4fb"),
    (circle_points(40, seed=1), 4, 6, 1, 0, "5b158d7be10ad14c"),
    (circle_points(40, seed=1), 4, 6, 3, 0, "3162560bf679789f"),
    (circle_points(8, 1, jitter=0.0), 2, 3, 2, 0, "ad9deae3657a8176"),
    ([[0.0], [0.0], [0.0]], 1, 2, 2, 0, "7269df3bdc6b5e14"),
], ids=["150-start0", "150-start7", "40-dim0", "40-dim1", "40-dim3", "ties",
        "coincident"])
def test_rips_streams_are_pinned(pts, mu, nu, max_dim, start, digest):
    blocks, scales = oscillating_rips_stream(pts, mu, nu, max_dim, start)
    assert stream_digest(blocks, scales)[:16] == digest


# Digests of the streams of the per-cube levelset generator this one
# replaced; the output must stay byte-identical.
@pytest.mark.parametrize("image, levels, digest", [
    (fourier_image((9, 9, 9), seed=11, terms=3), 0.2, "83305fdc4f3d6bcf"),
    (fourier_image((9, 9, 9), seed=11, terms=3), 0.35, "83688fc0e9531e3e"),
    (fourier_image((13, 13, 13), seed=11, terms=3), 0.2, "65e821373b201f71"),
    (fourier_image((13, 13, 13), seed=11, terms=3), 0.35, "871c3389bcd48b9a"),
    (ScalarImage((1, 5, 1), [0.3, 1.2, 0.1, 0.9, 0.5]), 0.25,
     "cf55cbe1a4738c35"),
    (ScalarImage((4, 3, 2), np.arange(24) * 7 % 5), [0, 1, 2, 3, 4],
     "80825b6b7b84b5ee"),
    (fourier_image((5, 4, 3), seed=2, terms=4),
     [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0], "d8e1c541c7885bfd"),
], ids=["9-0.2", "9-0.35", "13-0.2", "13-0.35", "1x5x1", "integer-ties",
        "levels-beyond-values"])
def test_levelset_streams_are_pinned(image, levels, digest):
    if not np.iterable(levels):
        levels = even_levels(image, levels)
    blocks, scales = levelset_stream(image, levels)
    assert stream_digest(blocks, scales)[:16] == digest


def test_a_simplex_keeps_one_record_per_call():
    pts = circle_points(40, seed=1)
    blocks, _ = oscillating_rips_stream(pts, 4, 6)
    first = {}
    reentries = 0
    for c in forward_records(blocks):
        reentries += c.cell in first
        assert first.setdefault(c.cell, c) is c
    assert reentries > 0
    again, _ = oscillating_rips_stream(pts, 4, 6)
    for c in forward_records(again):
        assert c == first[c.cell]
        assert c is not first[c.cell]
        assert c.boundary is not first[c.cell].boundary


def test_the_engine_and_the_oracle_leave_records_unchanged():
    blocks, _ = oscillating_rips_stream(circle_points(8, 1, jitter=0.0), 2, 3)
    before = copy.deepcopy(blocks)
    for morse in (True, False):
        for validate in (True, False):
            run_stream(blocks, p=2, morse=morse, validate=validate)
            assert blocks == before
    block_diagram(blocks, 2)
    assert blocks == before


@pytest.mark.parametrize("seed", range(5))
def test_oscillating_streams_match_the_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    pts = rng.uniform(size=(3 + seed % 4, 2))
    blocks, _ = oscillating_rips_stream(pts, 1.0, 1.3)
    for morse in (True, False):
        intervals, _ = run_stream(blocks, p=2, morse=morse, validate=True)
        assert [tuple(i) for i in intervals] == block_diagram(blocks, 2)


def test_eight_circle_points_match_the_oracle():
    blocks, _ = oscillating_rips_stream(circle_points(8, 1, jitter=0.0), 2, 3)
    intervals, _ = run_stream(blocks, validate=True)
    assert [tuple(i) for i in intervals] == block_diagram(blocks, 2)
    dim0 = [i for i in intervals if i.dim == 0]
    assert dim0 == [(0, 1, len(blocks) - 1)]


def test_circle_points_sit_on_the_unit_circle():
    pts = circle_points(25, seed=4)
    assert pts.shape == (25, 2)
    assert np.allclose((pts ** 2).sum(axis=1), 1.0)
    assert np.array_equal(pts, circle_points(25, seed=4))
    assert not np.array_equal(pts, circle_points(25, seed=5))
    with pytest.raises(EmptyCloud):
        circle_points(0, seed=1)


# -- levelset zigzag ------------------------------------------------------------------

def test_one_dimensional_bump_is_the_worked_example():
    img = ScalarImage((3, 1, 1), [0.0, 1.0, 0.0])
    blocks, scales = levelset_stream(img, (-0.5, 0.5, 1.5))
    assert scales == [0.5, 1.5, 0.5, 1.5]
    assert [c.cell for c in blocks[0].cells] == [(0, 0, 0), (4, 0, 0)]
    assert [c.cell for c in blocks[1].cells] == [(2, 0, 0), (1, 0, 0), (3, 0, 0)]
    assert blocks[2].cells == [(1, 0, 0), (3, 0, 0), (0, 0, 0), (4, 0, 0)]
    assert blocks[3].cells == [(2, 0, 0)]
    intervals, _ = run_stream(blocks, validate=True)
    assert [tuple(i) for i in intervals] == [(0, 1, 1), (0, 1, 3)]


def test_constant_image_is_one_full_complex():
    img = ScalarImage((2, 2, 1), [3.0] * 4)
    blocks, scales = levelset_stream(img, (0.0, 5.0))
    assert [(b.direction, len(b.cells)) for b in blocks] == [("F", 9), ("B", 9)]
    intervals, _ = run_stream(blocks, validate=True)
    assert [tuple(i) for i in intervals] == [(0, 1, 1)]


def test_levels_missing_the_value_empty_the_window():
    img = ScalarImage((2, 2, 1), [3.0] * 4)
    blocks, scales = levelset_stream(img, (0.0, 5.0, 9.0))
    assert [(b.direction, len(b.cells)) for b in blocks] == [
        ("F", 9), ("F", 0), ("B", 9), ("B", 0)]
    assert scales == [5.0, 9.0, 5.0, 9.0]
    intervals, _ = run_stream(blocks, validate=True)
    assert [tuple(i) for i in intervals] == [(0, 1, 2)]


def test_levels_must_increase():
    img = ScalarImage((2, 1, 1), [0.0, 1.0])
    with pytest.raises(NonMonotoneLevels):
        levelset_stream(img, (1.0, 0.0))
    with pytest.raises(NonMonotoneLevels):
        levelset_stream(img, (1.0,))


def test_window_membership_needs_every_vertex():
    # the edge's two vertices lie in different slabs, so it only appears
    # in the union window
    img = ScalarImage((2, 1, 1), [0.0, 1.0])
    blocks, _ = levelset_stream(img, (-0.5, 0.5, 1.5))
    assert [c.cell for c in blocks[0].cells] == [(0, 0, 0)]
    assert [c.cell for c in blocks[1].cells] == [(2, 0, 0), (1, 0, 0)]
    assert blocks[2].cells == [(1, 0, 0), (0, 0, 0)]


def replay_against_windows(image, levels):
    """Check every block against the per-cube window rule.

    After each block the live cubes are exactly those whose every vertex
    value lies in the block's window, and none after the last block.  A
    forward block adds the missing ones, sorted by (dim, cube), as records
    of Python ints with ``cube_facets`` boundaries; a backward block drops
    the others, sorted by (-dim, cube).  Each cube enters at most once and
    every cube that enters leaves exactly once.
    """
    blocks, scales = levelset_stream(image, levels)
    s = [float(v) for v in levels]
    windows = [(s[0], s[1])]
    want_scales = [s[1]]
    for i in range(1, len(s) - 1):
        windows += [(s[i - 1], s[i + 1]), (s[i], s[i + 1])]
        want_scales += [s[i + 1], s[i]]
    windows.append(None)
    want_scales.append(s[-1])
    assert scales == want_scales
    assert len(blocks) == len(windows)

    def dim(cube):
        return sum(v % 2 for v in cube)

    lo, hi = {}, {}
    for cube in product(*(range(2 * n - 1) for n in image.dims)):
        vals = [image.values[v] for v in
                product(*({v // 2, (v + 1) // 2} for v in cube))]
        lo[cube], hi[cube] = min(vals), max(vals)
    live, entered, left = set(), set(), []
    for block, window in zip(blocks, windows):
        want = set() if window is None else {
            c for c in lo if window[0] <= lo[c] and hi[c] <= window[1]}
        if block.direction == "F":
            cells = [r.cell for r in block.cells]
            assert live <= want
            assert cells == sorted(want - live, key=lambda c: (dim(c), c))
            for r in block.cells:
                assert all(type(v) is int for v in r.cell)
                assert type(r.dim) is int and r.dim == dim(r.cell)
                assert r.boundary == cube_facets(r.cell)
            assert entered.isdisjoint(cells)
            entered.update(cells)
            live.update(cells)
        else:
            assert want <= live
            assert block.cells == sorted(live - want,
                                         key=lambda c: (-dim(c), c))
            left += block.cells
            live -= set(block.cells)
    assert not live
    assert sorted(left) == sorted(entered)


@pytest.mark.parametrize("seed", range(24))
def test_levelset_blocks_follow_the_window_rule(seed):
    rng = np.random.default_rng(400 + seed)
    dims = tuple(int(n) for n in rng.integers(1, 6, 3))
    size = dims[0] * dims[1] * dims[2]
    if seed % 3 == 0:
        img = ScalarImage(dims, rng.uniform(-1.0, 1.0, size))
        levels = even_levels(img, float(rng.uniform(0.1, 0.6)))
    else:
        # integer values tie with integer levels, some beyond the range
        img = ScalarImage(dims, rng.integers(0, 4, size))
        count = int(rng.integers(2, 7))
        levels = sorted(int(v) for v in
                        rng.choice(np.arange(-2, 6), count, replace=False))
    replay_against_windows(img, levels)


@pytest.mark.parametrize("seed", range(4))
def test_levelset_streams_match_the_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    img = ScalarImage((3, 3, 1), rng.uniform(size=9))
    blocks, _ = levelset_stream(img, even_levels(img, 0.35))
    for morse in (True, False):
        intervals, _ = run_stream(blocks, p=2, morse=morse, validate=True)
        assert [tuple(i) for i in intervals] == block_diagram(blocks, 2)


def test_even_levels_cover_the_range():
    img = ScalarImage((2, 1, 1), [0.0, 1.0])
    levels = even_levels(img, 0.4)
    assert levels[0] == 0.0 and levels[-1] >= 1.0
    assert all(b > a for a, b in zip(levels, levels[1:]))
    assert even_levels(ScalarImage((1, 1, 1), [2.0]), 0.5) == [2.0, 2.5]
    with pytest.raises(BadParameters):
        even_levels(img, 0.0)
    # 149 rounded steps of 0.1 land one ulp below the maximum, which then
    # never enters a window
    img = ScalarImage((2, 1, 1), [2.118883313569249, 17.01888331356925])
    levels = even_levels(img, 0.1)
    assert levels[-1] >= 17.01888331356925
    assert all(b > a for a, b in zip(levels, levels[1:]))
    intervals, _ = run_stream(levelset_stream(img, levels)[0])
    assert len(intervals) == 2
    # a step below the values' float resolution repeats levels
    with pytest.raises(BadParameters, match="spacing"):
        even_levels(ScalarImage((2, 1, 1), [1e16, 1e16 + 4]), 0.5)


def test_image_shape_is_checked():
    with pytest.raises(CountMismatch):
        ScalarImage((2, 2, 2), [0.0] * 7)
    with pytest.raises(EmptyDims):
        ScalarImage((0, 2, 2), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_image_values_are_rejected(bad):
    values = np.zeros(27)
    values[13] = bad
    with pytest.raises(BadParameters, match="non-finite"):
        ScalarImage((3, 3, 3), values)


def test_nan_level_is_rejected():
    img = ScalarImage((2, 1, 1), [0.0, 1.0])
    with pytest.raises(NonMonotoneLevels):
        levelset_stream(img, [0.0, np.nan, 1.0])


@pytest.mark.parametrize("dims", [(2.5, 2, 2), ("3", 3, 3), (3, 3, None)])
def test_image_extents_must_be_integers(dims):
    with pytest.raises(BadParameters, match="extent"):
        ScalarImage(dims, np.zeros(18))
    with pytest.raises(BadParameters, match="extent"):
        fourier_image(dims, seed=1, terms=2)
    # numpy integers, as in an array's shape, are integers
    assert ScalarImage(np.array([2, 1, 1]), [0.0, 1.0]).dims == (2, 1, 1)


# -- synthetic images -----------------------------------------------------------------

def test_fourier_image_is_deterministic():
    a = fourier_image((5, 4, 3), seed=42, terms=7)
    b = fourier_image((5, 4, 3), seed=42, terms=7)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values,
                              fourier_image((5, 4, 3), seed=43, terms=7).values)


def test_zero_terms_give_a_flat_image():
    img = fourier_image((4, 4, 4), seed=0, terms=0)
    assert not img.values.any()


def test_full_resolution_vertex_count():
    img = fourier_image((129, 129, 129), seed=1, terms=1)
    assert img.values.size == 2_146_689


# -- random streams -------------------------------------------------------------------

def test_random_streams_are_seed_reproducible():
    a = random_block_stream(123)
    b = random_block_stream(make_rng(123))
    assert a == b
    assert sum(len(bl.cells) for bl in a if bl.direction == "F") == \
        sum(len(bl.cells) for bl in a if bl.direction == "B")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_streams_are_block_ops(p):
    for seed in range(200):
        for block in random_block_stream(seed, p=p):
            assert type(block) is BlockOp and block.cells
            if block.direction == "F":
                assert all(type(c) is ForwardCell for c in block.cells)
            else:
                assert block.direction == "B"
                assert all(type(c) is int for c in block.cells)


# sha256 over repr(random_block_stream(seed, **kwargs)) for seeds 0-39, the
# same streams as recorded while the generator still drew its cycles through
# linalg.nullspace and returned ("i"/"r") op lists for a converter to wrap
RANDOM_STREAMS = [
    ({"p": 7},
     "1511bea330bae32852d8dce03930c67602226f390ad4117f40d6dfd926b902f5"),
    ({"max_live": 24, "max_arrows": 80},
     "a2b7c8b1fafed8bca04a4085fcd13c122e8f1eb3a212b8007940bdff6b078b50"),
    ({"max_dim": 0},
     "5a09d31a1997a39203821188d61139a4c39cbab85183b82545872707fd7ea087"),
    ({"max_dim": 1},
     "5863cef5e2a5afecc527f6d3dacde8ca6507b53172a877353cbbf7e4846cf47e"),
    ({"max_dim": 5},
     "208f1243c1de79d6a6c6024696123a2a83b8c1cfd37b2776faf627a98f8ef707"),
]


@pytest.mark.parametrize("kwargs, digest", RANDOM_STREAMS,
                         ids=["p7", "live24-arrows80", "dim0", "dim1", "dim5"])
def test_random_streams_are_pinned(kwargs, digest):
    h = hashlib.sha256()
    for seed in range(40):
        h.update(repr(random_block_stream(seed, **kwargs)).encode())
    assert h.hexdigest() == digest


def test_a_huge_max_dim_sizes_nothing():
    # the live cells are indexed by the dimensions in use, not up to max_dim;
    # a cell drawn above every live dimension enters as a vertex
    blocks = random_block_stream(1, max_dim=10 ** 9)
    inserted = [c for block in blocks if block.direction == "F"
                for c in block.cells]
    assert inserted and all(c.dim == 0 and c.boundary == {} for c in inserted)


def _nullspace_cycle(state, q, p, rng):
    """The generator's former cycle draw: a dense kernel basis from
    ``linalg.nullspace``, weighted by one draw per basis vector."""
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


def _matrix_state(rows, columns):
    """A snapshot whose 1-cells 100, 101, ... have the given columns as
    boundaries over the 0-cells 0..rows-1 (rows=0: 0-cells over nothing)."""
    q = 1 if rows else 0
    state = {r: (0, {}) for r in range(rows)}
    for j, col in enumerate(columns):
        state[100 + j] = (q, {r: k for r, k in enumerate(col) if k})
    return state, q


def _matrix_cases(p):
    gen = random.Random(p)
    yield [[0] * 3] * 4, 3  # the zero matrix
    yield [[int(r == j) for r in range(4)] for j in range(4)], 4  # full rank
    yield [[] for _ in range(5)], 0  # no rows: cycles among vertices
    for _ in range(150):
        rows, cols = gen.randint(1, 5), gen.randint(1, 6)
        density = gen.random()
        yield ([[gen.randint(1 - p, p) if gen.random() < density else 0
                 for _ in range(rows)] for _ in range(cols)], rows)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_small_kernel_basis_draws_the_nullspace_cycle(p):
    nones = 0
    for columns, rows in _matrix_cases(p):
        state, q = _matrix_state(rows, columns)
        for seed in range(4):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = random_cycle(state, q, p, ours)
            assert got == _nullspace_cycle(state, q, p, theirs)
            assert ours.getstate() == theirs.getstate()
            nones += got is None
    assert nones  # the full-rank case, at least, has no cycle


def test_the_cycle_draw_gives_up_after_eight_zero_combinations():
    # a lone vertex's kernel is one basis vector; at p = 2 its weight draws 0
    # half the time, so a few seeds draw 0 eight times over and get no cycle
    def zero_draws(seed):
        rng = random.Random(seed)
        return not any(rng.randrange(2) for _ in range(8))

    misses = [seed for seed in range(2000)
              if _random_cycle_among({0: {}}, 2, random.Random(seed)) is None]
    assert misses and misses == list(filter(zero_draws, range(2000)))


# -- parameter checks ----------------------------------------------------------------

@pytest.mark.parametrize("start", [10, 99, -1, 1.5, "0"])
def test_ordering_start_must_index_a_point(start):
    with pytest.raises(BadParameters, match="start"):
        furthest_point_ordering(circle_points(10, seed=1), start=start)


@pytest.mark.parametrize("start", [99, -1])
def test_rips_stream_start_must_index_a_point(start):
    with pytest.raises(BadParameters, match="start"):
        oscillating_rips_stream(circle_points(10, seed=1), 4.0, 6.0, start=start)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_are_rejected(bad):
    with pytest.raises(BadParameters, match="non-finite"):
        as_point_cloud([[0.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize("max_dim", [1.5, -1, "2", None])
def test_max_dim_must_be_a_non_negative_integer(max_dim):
    pts = circle_points(6, seed=2)
    with pytest.raises(BadParameters, match="max_dim"):
        oscillating_rips_stream(pts, 4.0, 6.0, max_dim=max_dim)
    with pytest.raises(BadParameters, match="max_dim"):
        random_block_stream(1, max_dim=max_dim)


@pytest.mark.parametrize("spacing", [np.nan, np.inf, "0.2", 1e-300, 5e-324])
def test_level_spacing_must_be_finite(spacing):
    with pytest.raises(BadParameters, match="spacing"):
        even_levels(fourier_image((3, 3, 3), seed=1, terms=2), spacing)


def test_fourier_terms_must_be_a_non_negative_integer():
    with pytest.raises(BadParameters, match="terms"):
        fourier_image((3, 3, 3), seed=1, terms=-1)


@pytest.mark.parametrize("n", ["a", 2.5])
def test_circle_point_count_must_be_an_integer(n):
    with pytest.raises(BadParameters, match="point count"):
        circle_points(n, seed=1)


@pytest.mark.parametrize("kwargs, name", [
    ({"max_arrows": 3}, "max_arrows"), ({"max_arrows": 2.5}, "max_arrows"),
    ({"max_live": 0}, "max_live"), ({"max_live": -1}, "max_live"),
    ({"max_live": 2.5}, "max_live"), ({"p": 1}, "prime"), ({"p": 4}, "prime")])
def test_random_stream_parameters_are_checked(kwargs, name):
    with pytest.raises(BadParameters, match=name):
        random_block_stream(1, **kwargs)


@pytest.mark.parametrize("rho", [np.nan, np.inf, "0.5", None])
def test_rips_radius_must_be_a_finite_real(rho):
    # the stream's radii are mu and nu times the insertion radii
    pts = circle_points(6, seed=2)
    with pytest.raises(BadParameters, match="mu"):
        oscillating_rips_stream(pts, rho, 6.0)
    with pytest.raises(BadParameters, match="nu"):
        oscillating_rips_stream(pts, 4.0, rho)


@pytest.mark.parametrize("mu, nu", [("4", 6.0), (4.0, "6"), (4.0, np.inf)])
def test_rips_scale_factors_must_be_finite_reals(mu, nu):
    with pytest.raises(BadParameters, match="mu|nu"):
        oscillating_rips_stream(circle_points(6, seed=2), mu, nu)


@pytest.mark.parametrize("levels", [None, "ab", [0.0, "1", 2.0]])
def test_levels_must_be_reals(levels):
    img = ScalarImage((2, 1, 1), [0.0, 1.0])
    with pytest.raises(NonMonotoneLevels):
        levelset_stream(img, levels)


@pytest.mark.parametrize("jitter", ["x", np.nan, None, -0.5])
def test_circle_jitter_must_be_a_finite_real(jitter):
    with pytest.raises(BadParameters, match="jitter"):
        circle_points(5, 1, jitter=jitter)


def test_zero_jitter_spaces_points_evenly():
    pts = circle_points(4, 1, jitter=0.0)
    assert np.allclose(pts, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda seed: circle_points(5, seed),
    lambda seed: fourier_image((3, 3, 3), seed, 2)], ids=["circle", "fourier"])
@pytest.mark.parametrize("seed", ["abc", -1, 1.5])
def test_seeds_must_be_non_negative_integers(call, seed):
    with pytest.raises(BadParameters, match="seed"):
        call(seed)


def test_random_stream_seed_must_be_an_integer():
    with pytest.raises(BadParameters, match="seed"):
        random_block_stream([1, 2])


def test_points_must_be_real_numbers():
    with pytest.raises(BadParameters, match="real numbers"):
        oscillating_rips_stream({1: 2}, 1, 2)


def test_levelset_input_must_be_an_image():
    with pytest.raises(BadParameters, match="ScalarImage"):
        levelset_stream(None, [0, 1])
    with pytest.raises(BadParameters, match="ScalarImage"):
        even_levels(None, 0.1)


def test_image_dims_and_values_are_checked():
    with pytest.raises(BadParameters, match="dims must be a sequence"):
        ScalarImage(3, [1, 2, 3])
    with pytest.raises(BadParameters, match="values must be real"):
        ScalarImage((1, 1, 1), "a")
