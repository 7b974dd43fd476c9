"""Metamorphic tests: relabelling ids changes nothing, nor does record
order within a block, and reversal mirrors.

The engine names cells by internal ids handed out in block order, so the
diagram and the ``Metrics`` must not depend on the ids a stream uses.  A
block is a set: reordering its records may change the matching, and so the
reduced counts, but not the diagram, the raw ops or the complex's size.
Played backwards, a zigzag of N blocks sees the same complexes in reverse
order, so each interval ``(dim, b, d)`` becomes ``(dim, N-d, N-b)``.
"""

import random

import pytest

from zzmorse.generators import (circle_points, even_levels, fourier_image,
                                levelset_stream, oscillating_rips_stream,
                                random_block_stream)
from zzmorse.kernel import run_stream
from zzmorse.stream import BlockOp, ForwardCell


def relabel(blocks, label):
    out = []
    for direction, cells in blocks:
        if direction == "F":
            cells = [ForwardCell(label(cell), dim,
                                 {label(f): c for f, c in boundary.items()})
                     for cell, dim, boundary in cells]
        else:
            cells = [label(cell) for cell in cells]
        out.append(BlockOp(direction, cells))
    return out


@pytest.mark.parametrize("morse", [True, False])
@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_int_ids_to_strings(seed, morse):
    # "c10" sorts before "c2": the new ids also reorder the old ones
    blocks = random_block_stream(seed, p=5, max_live=10, max_arrows=24)
    assert (run_stream(relabel(blocks, "c{}".format), p=5, morse=morse)
            == run_stream(blocks, p=5, morse=morse))


@pytest.mark.parametrize("morse", [True, False])
def test_simplex_tuples_to_ints(morse):
    blocks, _ = oscillating_rips_stream(circle_points(12, seed=3), 4.0, 6.0)
    simplices = sorted({s for block in blocks if block.direction == "B"
                        for s in block.cells})
    ints = list(range(len(simplices)))
    random.Random(5).shuffle(ints)
    label = dict(zip(simplices, ints)).__getitem__
    out = run_stream(relabel(blocks, label), morse=morse)
    assert out == run_stream(blocks, morse=morse)
    assert any(dim == 1 for dim, _, _ in out[0])  # the circle shows up


def shuffled(blocks, seed):
    """The stream with the records of every block in a seeded random order."""
    rng = random.Random(seed)
    out = []
    for direction, cells in blocks:
        cells = list(cells)
        rng.shuffle(cells)
        out.append(BlockOp(direction, cells))
    return out


def assert_order_free(blocks, p, morse):
    """Shuffling within blocks keeps the diagram, raw ops and max cells;
    returns both runs' metrics."""
    intervals, metrics = run_stream(blocks, p=p, morse=morse)
    again, shuffled_metrics = run_stream(shuffled(blocks, 11), p=p, morse=morse)
    assert again == intervals
    assert shuffled_metrics.raw_ops == metrics.raw_ops
    assert shuffled_metrics.max_cells == metrics.max_cells
    return metrics, shuffled_metrics


@pytest.mark.parametrize("morse", [True, False])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_record_order_within_blocks_leaves_random_diagrams(p, morse):
    for seed in range(12):
        blocks = random_block_stream(seed, p=p, max_live=12, max_arrows=40)
        assert_order_free(blocks, p, morse)


def levelset_9():
    image = fourier_image((9, 9, 9), seed=11, terms=3)
    return levelset_stream(image, even_levels(image, 0.2))[0]


def rips_30():
    return oscillating_rips_stream(circle_points(30, seed=3), 4.0, 6.0)[0]


@pytest.mark.parametrize("morse", [True, False])
@pytest.mark.parametrize("stream", [rips_30, levelset_9])
def test_record_order_within_blocks_leaves_preset_diagrams(stream, morse):
    metrics, shuffled_metrics = assert_order_free(stream(), 2, morse)
    if morse:  # the shuffle changed the matching
        assert shuffled_metrics.reduced_ops != metrics.reduced_ops


def reverse(blocks):
    """The stream played backwards: removals re-insert the recorded cells."""
    records = {}  # a re-inserted id (a Rips simplex) keeps its record
    for direction, cells in blocks:
        if direction == "F":
            records.update((cell.cell, cell) for cell in cells)
    return [BlockOp("B", [cell.cell for cell in cells]) if direction == "F"
            else BlockOp("F", [records[cell] for cell in cells])
            for direction, cells in reversed(blocks)]


def assert_reversal_mirrors(blocks, p, morse):
    n = len(blocks)
    forward, _ = run_stream(blocks, p=p, morse=morse)
    backward, _ = run_stream(reverse(blocks), p=p, morse=morse)
    assert sorted((dim, n - d, n - b) for dim, b, d in forward) == backward
    return forward


@pytest.mark.parametrize("morse", [True, False])
@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_reversal_mirrors_intervals(seed, morse):
    blocks = random_block_stream(seed, p=5, max_live=10,
                                               max_arrows=24)
    assert_reversal_mirrors(blocks, 5, morse)


@pytest.mark.parametrize("morse", [True, False])
def test_reversed_rips_stream_mirrors_intervals(morse):
    blocks, _ = oscillating_rips_stream(circle_points(12, seed=3), 4.0, 6.0)
    intervals = assert_reversal_mirrors(blocks, 2, morse)
    assert any(dim == 1 for dim, _, _ in intervals)  # the circle shows up
