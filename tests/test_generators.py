"""Stream generators: orderings, Rips/levelset zigzags, synthetic images."""

from itertools import combinations

import numpy as np
import pytest

from conftest import make_rng
from zzmorse.errors import (BadParameters, CountMismatch, EmptyCloud,
                            EmptyDims, NonMonotoneLevels, RaggedRow)
from zzmorse.generators import (ScalarImage, as_point_cloud, blocks_to_stream,
                                circle_points, even_levels, fourier_image,
                                furthest_point_ordering, levelset_stream,
                                oscillating_rips_stream, random_block_stream)
from zzmorse.kernel import run_stream
from zzmorse.oracle import block_diagram


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

def forward_cells(blocks):
    return [c.cell for b in blocks if b.direction == "F" for c in b.cells]


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
    """Check every block's cells against independently computed diameters."""
    blocks, scales = oscillating_rips_stream(pts, mu, nu, max_dim)
    order, _ = furthest_point_ordering(pts)
    q = as_point_cloud(pts)[np.array(order)]
    d2 = ((q[:, None, :] - q[None, :, :]) ** 2).sum(-1)

    def diam2(s):
        return max((d2[a, b] for a, b in combinations(s, 2)), default=0.0)

    live = set()
    for k, (block, scale) in enumerate(zip(blocks, scales)):
        thr2 = scale * scale
        if block.direction == "F":
            for c in block.cells:
                assert diam2(c.cell) <= thr2
            live.update(c.cell for c in block.cells)
        else:
            gone = set(block.cells)
            if k < len(blocks) - 1:
                assert gone == {s for s in live if diam2(s) > thr2}
            else:
                assert gone == live
            live -= gone
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
    stream = blocks_to_stream(a)
    assert sum(len(bl.cells) for bl in stream if bl.direction == "F") == \
        sum(len(bl.cells) for bl in stream if bl.direction == "B")


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
