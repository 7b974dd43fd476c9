"""Blocks are checked at the door, the same way in both pipelines.

A malformed block must raise one named ``ZigzagError`` whether or not the
engine Morse-reduces the complex; a well-formed stream must give the same
diagram either way.
"""

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blocks_to_stream, random_block_ops
from zzmorse.errors import BadParameters, InvalidOp, MissingFacet, ZigzagError
from zzmorse.kernel import run_stream
from zzmorse.stream import BlockOp, ForwardCell

# defect -> the error both pipelines must raise for it (None: no defect)
DEFECTS = {
    None: None,
    "numpy integers": None,
    "self facet": MissingFacet,
    "facet of the wrong dimension": MissingFacet,
    "float coefficient": InvalidOp,
    "string coefficient": InvalidOp,
    "negative dimension": InvalidOp,
    "fractional dimension": InvalidOp,
    "unhashable cell id": InvalidOp,
    "unhashable facet id": InvalidOp,
    "boundary not a mapping": InvalidOp,
    "unhashable backward id": InvalidOp,
    "float p": BadParameters,
}

NEEDS_FACETS = ("facet of the wrong dimension", "float coefficient",
                "string coefficient", "unhashable facet id")


class PairList(Mapping):
    """A mapping kept as a list of pairs, so its keys need not be hashable."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def __getitem__(self, key):
        for k, v in self.pairs:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def outcome(blocks, p, morse):
    """The diagram, or the type of the ZigzagError the run raised."""
    try:
        return run_stream(blocks, p=p, morse=morse)[0]
    except ZigzagError as exc:
        return type(exc)


def damage(cell, defect):
    """A copy of one ForwardCell (or backward id) carrying the given defect."""
    if defect == "unhashable backward id":
        return [cell]
    bnd = dict(cell.boundary)
    dim = cell.dim
    ext = cell.cell
    if defect == "self facet":
        bnd[cell.cell] = 1
    elif defect == "facet of the wrong dimension":
        dim += 1
    elif defect == "float coefficient":
        facet = next(iter(bnd))
        bnd[facet] += 0.5
    elif defect == "string coefficient":
        facet = next(iter(bnd))
        bnd[facet] = str(bnd[facet])
    elif defect == "negative dimension":
        dim = -1
    elif defect == "fractional dimension":
        dim += 0.5
    elif defect == "unhashable cell id":
        ext = [ext]
    elif defect == "unhashable facet id":
        bnd = PairList([([f], c) for f, c in bnd.items()])
    elif defect == "boundary not a mapping":
        bnd = list(bnd)
    return ForwardCell(ext, dim, bnd)


def as_numpy(blocks):
    out = []
    for block in blocks:
        if block.direction == "F":
            block = BlockOp("F", [
                ForwardCell(fc.cell, np.int64(fc.dim),
                            {f: np.int64(c) for f, c in fc.boundary.items()})
                for fc in block.cells])
        out.append(block)
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([2, 3, 5]),
       defect=st.sampled_from(list(DEFECTS)), data=st.data())
def test_both_pipelines_refuse_the_same_input(seed, p, defect, data):
    blocks = blocks_to_stream(random_block_ops(seed, p=p, max_live=8,
                                               max_arrows=16))
    run_p = p
    if defect == "numpy integers":
        blocks, run_p = as_numpy(blocks), np.int64(p)
    elif defect == "float p":
        run_p = float(p)
    elif defect is not None:
        direction = "B" if defect == "unhashable backward id" else "F"
        targets = [(b, i) for b, block in enumerate(blocks)
                   if block.direction == direction
                   for i, fc in enumerate(block.cells)
                   if direction == "B" or fc.boundary
                   or defect not in NEEDS_FACETS]
        if not targets:
            targets = [(0, 0)]
            defect = "self facet"
        b, i = data.draw(st.sampled_from(targets))
        cells = list(blocks[b].cells)
        cells[i] = damage(cells[i], defect)
        blocks[b] = BlockOp(blocks[b].direction, cells)

    reduced = outcome(blocks, run_p, morse=True)
    unreduced = outcome(blocks, run_p, morse=False)
    assert reduced == unreduced
    expected = DEFECTS[defect]
    if expected is None:
        assert isinstance(reduced, list)
        assert reduced == outcome(blocks_to_stream(
            random_block_ops(seed, p=p, max_live=8, max_arrows=16)), p, True)
    else:
        assert reduced is expected


@pytest.mark.parametrize("morse", [True, False])
def test_door_errors_name_the_defect(morse):
    def run(*cells, p=3):
        return run_stream([BlockOp("F", list(cells))], p=p, morse=morse)

    with pytest.raises(MissingFacet, match="facet 0 of cell 0"):
        run(ForwardCell(0, 1, {0: 1}))
    with pytest.raises(MissingFacet, match="has dimension 0, expected 1"):
        run(ForwardCell(1, 0, {}), ForwardCell(2, 2, {1: 1}))
    with pytest.raises(InvalidOp, match="coefficient 1.5"):
        run(ForwardCell(1, 0, {}), ForwardCell(2, 1, {1: 1.5}))
    with pytest.raises(InvalidOp, match="dimension -1"):
        run(ForwardCell(1, -1, {}))
    with pytest.raises(InvalidOp, match="dimension 0.5"):
        run(ForwardCell(1, 0.5, {}))
    with pytest.raises(InvalidOp, match=r"cell id \[1\] is not hashable"):
        run(ForwardCell([1], 0, {}))
    with pytest.raises(InvalidOp,
                       match=r"facet id \[1\] of cell 2 is not hashable"):
        run(ForwardCell(1, 0, {}), ForwardCell(2, 1, PairList([([1], 1)])))
    with pytest.raises(InvalidOp,
                       match=r"boundary \[1\] of cell 2 is not a mapping"):
        run(ForwardCell(1, 0, {}), ForwardCell(2, 1, [1]))
    with pytest.raises(InvalidOp, match="boundary None of cell 2"):
        run(ForwardCell(2, 1, None))
    with pytest.raises(InvalidOp, match=r"cell id \[1\] is not hashable"):
        run_stream([BlockOp("F", [ForwardCell(1, 0, {})]), BlockOp("B", [[1]])],
                   morse=morse)
    with pytest.raises(BadParameters):
        run(ForwardCell(1, 0, {}), p=5.0)
    blocks = [BlockOp("F", [ForwardCell(1, 0, {}), ForwardCell(2, 0, {}),
                            ForwardCell(3, 1, {1: 1, 2: np.int64(4)})]),
              BlockOp("B", [3, 1, 2])]
    assert run_stream(blocks, p=np.int64(5), morse=morse)[0] == [(0, 1, 1)]
