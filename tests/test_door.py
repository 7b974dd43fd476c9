"""Blocks are checked at the door, the same way in both pipelines.

A malformed block must raise one named ``ZigzagError`` whether or not the
engine Morse-reduces the complex; a well-formed stream must give the same
diagram either way.  The tests' complexes are built through the same door
(``conftest.insert_block``), so a malformed record is refused there with
the same error and writes nothing.  A boundary that is not a cycle raises
``BrokenBoundary`` in validate mode and without Morse.  A stream file is
either refused by ``parse_stream`` or gives blocks that reach that door.
"""

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audits import emit_stream
from conftest import insert_block
from zzmorse.cells import Complex
from zzmorse.cli import parse_stream
from zzmorse.errors import (BadParameters, BadStreamLine, BrokenBoundary,
                            InvalidOp, MissingFacet, NotRemovable, UnknownCell,
                            ZigzagError)
from zzmorse.generators import random_block_stream
from zzmorse.kernel import run_stream
from zzmorse.oracle import block_diagram
from zzmorse.stream import BlockOp, ForwardCell

# defect -> the error both pipelines must raise for it (None: no defect)
DEFECTS = {
    None: None,
    "numpy integers": None,
    "plain tuples": None,
    "self facet": MissingFacet,
    "facet of the wrong dimension": MissingFacet,
    "float coefficient": InvalidOp,
    "string coefficient": InvalidOp,
    "negative dimension": InvalidOp,
    "fractional dimension": InvalidOp,
    "string dimension": InvalidOp,
    "record not a triple": InvalidOp,
    "unhashable cell id": InvalidOp,
    "unhashable facet id": InvalidOp,
    "boundary not a mapping": InvalidOp,
    "unhashable backward id": InvalidOp,
    "facet removed before its cofacet": NotRemovable,
    "block not a pair": InvalidOp,
    "cells not iterable": InvalidOp,
    "float p": BadParameters,
}

BLOCK_DEFECTS = ("block not a pair", "cells not iterable")

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


def outcome(blocks, p, morse, validate=False):
    """The diagram, or the type of the ZigzagError the run raised."""
    try:
        return run_stream(blocks, p=p, morse=morse, validate=validate)[0]
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
    elif defect == "string dimension":
        dim = str(dim)
    elif defect == "record not a triple":
        return (ext, dim)
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
    blocks = random_block_stream(seed, p=p, max_live=8, max_arrows=16)
    run_p = p
    if defect == "numpy integers":
        blocks, run_p = as_numpy(blocks), np.int64(p)
    elif defect == "plain tuples":
        blocks = [(d, [tuple(fc) for fc in cells] if d == "F" else list(cells))
                  for d, cells in blocks]
    elif defect == "float p":
        run_p = float(p)
    elif defect in BLOCK_DEFECTS:
        b = data.draw(st.integers(0, len(blocks) - 1))
        blocks[b] = (None if defect == "block not a pair"
                     else BlockOp(blocks[b].direction, None))
    elif defect == "facet removed before its cofacet":
        facets = {fc.cell: fc.boundary for d, cells in blocks if d == "F"
                  for fc in cells}
        targets = [(b, f) for b, (d, cells) in enumerate(blocks) if d == "B"
                   for cell in cells for f in facets[cell]]
        if targets:
            # f leaves in its own block just before a block taking a cofacet
            b, f = data.draw(st.sampled_from(targets))
            blocks = [BlockOp(d, [c for c in cells if c != f])
                      if d == "B" else BlockOp(d, cells)
                      for d, cells in blocks]
            blocks.insert(b, BlockOp("B", [f]))
        else:
            blocks[0].cells[0] = damage(blocks[0].cells[0], "self facet")
            defect = "self facet"
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
        assert reduced == outcome(
            random_block_stream(seed, p=p, max_live=8, max_arrows=16), p, True)
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
    with pytest.raises(InvalidOp, match="dimension '1'"):
        run(ForwardCell(1, "1", {}))
    with pytest.raises(InvalidOp, match="cell id 'a' is already alive"):
        run_stream([BlockOp("F", [ForwardCell("a", 0, {})]),
                    BlockOp("F", [ForwardCell("a", 0, {})])], morse=morse)
    with pytest.raises(InvalidOp, match="cell id 'a' is already alive"):
        run(ForwardCell("a", 0, {}), ForwardCell("a", 0, {}))
    with pytest.raises(InvalidOp, match="unknown block direction 'X'"):
        run_stream([BlockOp("X", [])], morse=morse)
    with pytest.raises(InvalidOp, match="block 1 is not"):
        run_stream([None], morse=morse)
    with pytest.raises(InvalidOp, match="block 1 is not"):
        run_stream([BlockOp("F", None)], morse=morse)
    with pytest.raises(InvalidOp, match=r"forward record \(1, 0\)"):
        run_stream([BlockOp("F", [(1, 0)])], morse=morse)
    with pytest.raises(InvalidOp, match="stream 5 is not iterable"):
        run_stream(5, morse=morse)
    with pytest.raises(InvalidOp, match="stream None is not iterable"):
        run_stream(None, morse=morse)
    with pytest.raises(InvalidOp, match="observer 5 is not callable"):
        run_stream([None], morse=morse, observer=5)  # before the first block
    with pytest.raises(BadParameters):
        run(ForwardCell(1, 0, {}), p=5.0)
    plain = [("F", [ForwardCell(1, 0, {})]), ("B", [1])]
    assert run_stream(plain, morse=morse)[0] == [(0, 1, 1)]
    blocks = [BlockOp("F", [ForwardCell(1, 0, {}), ForwardCell(2, 0, {}),
                            ForwardCell(3, 1, {1: 1, 2: np.int64(4)})]),
              BlockOp("B", [3, 1, 2])]
    assert run_stream(blocks, p=np.int64(5), morse=morse)[0] == [(0, 1, 1)]


@pytest.mark.parametrize("name", ["morse", "validate"])
@pytest.mark.parametrize("flag", ["no", "off", 1, np.bool_(True)])
def test_a_flag_that_is_not_a_bool_is_refused(name, flag):
    blocks = [("F", [("a", 0, {}), ("b", 0, {}), ("e", 1, {"a": 1, "b": 1})]),
              ("B", ["e", "a", "b"])]
    with pytest.raises(BadParameters, match="%s=" % name):
        run_stream(blocks, **{name: flag})
    with pytest.raises(BadParameters, match="%s=" % name):
        run_stream([None], **{name: flag})  # before the first block


@pytest.mark.parametrize("morse", [True, False])
def test_removal_errors_name_the_callers_ids(morse):
    edge = ("F", [("a", 0, {}), ("b", 0, {}), ("ab", 1, {"a": 1, "b": 1})])

    def run(*removals):
        return run_stream([edge] + [("B", r) for r in removals], morse=morse)

    with pytest.raises(NotRemovable,
                       match="cell 'a' has a cofacet 'ab' outside the block"):
        run(["a"])
    with pytest.raises(NotRemovable, match="cell 'b' has a cofacet 'ab'"):
        run(["b", "a"])
    with pytest.raises(UnknownCell, match="cell id 'z' is not alive"):
        run(["ab", "z"])
    with pytest.raises(InvalidOp, match="cell id 'ab' removed twice"):
        run(["ab", "ab"])
    with pytest.raises(UnknownCell, match="cell id 'ab' is not alive"):
        run(["ab"], ["ab"])
    assert run(["ab"], ["a", "b"])[0] == [(0, 1, 2), (0, 2, 2)]


@pytest.mark.parametrize("morse", [True, False])
def test_one_cell_removal_blocks(morse):
    edge = ("F", [("a", 0, {}), ("b", 0, {}), ("ab", 1, {"a": 1, "b": 1})])
    ops = []

    def run(*removals):
        ops.clear()
        return run_stream([edge] + [("B", r) for r in removals], morse=morse,
                          observer=lambda state, matrix, op: ops.append(op))

    with pytest.raises(UnknownCell, match="cell id 'z' is not alive"):
        run(["z"])
    with pytest.raises(InvalidOp, match=r"cell id \['ab'\] is not hashable"):
        run([["ab"]])
    with pytest.raises(NotRemovable,
                       match="cell 'b' has a cofacet 'ab' outside the block"):
        run(["b"])
    # with Morse, coreduction pairs b with ab: the king ab leaves alone and
    # its queue cell b stays, so the pair is split first
    assert run(["ab"], ["b"], ["a"])[0] == [(0, 1, 3), (0, 2, 2)]
    removal = [type(op).__name__ for op in ops
               if not type(op).__name__.startswith("Insert")]
    assert removal == (["Split", "RemoveCritical"] if morse
                       else ["RemoveCritical"]) + ["RemoveCritical"] * 2


@pytest.mark.parametrize("cells", ["ab", b"ab", bytearray(b"ab")])
@pytest.mark.parametrize("direction", ["F", "B"])
def test_a_string_of_cells_is_refused(direction, cells):
    # the live cells 'a', 'b' and 'ab' must not be read as the string's
    # characters
    live = ("F", [("a", 0, {}), ("b", 0, {}), ("ab", 0, {})])
    stream = [live, (direction, cells), ("B", ["a", "b", "ab"])]
    for morse in (True, False):
        with pytest.raises(InvalidOp,
                           match="block 2 gives its cells as a string"):
            run_stream(stream, morse=morse)
    with pytest.raises(InvalidOp, match="block 2 gives its cells as a string"):
        block_diagram(stream)


class Dim(int):
    """An int subclass, which the door checks as it checks any other type."""


# one record on top of the vertices 0, 1 and the edge 2 -> the error for it,
# or None for the odd records that are valid: the door's shortcuts for a
# plain int dimension and an empty dict boundary must not change what it
# takes or refuses
RECORD_DEFECTS = {
    "float coefficient": ((1, {0: 1.5, 1: 1}), InvalidOp),
    "string coefficient": ((1, {0: "1", 1: 1}), InvalidOp),
    "negative dimension": ((-1, {}), InvalidOp),
    "fractional dimension": ((0.5, {}), InvalidOp),
    "string dimension": (("1", {0: 1, 1: 1}), InvalidOp),
    "boundary not a mapping": ((1, [0, 1]), InvalidOp),
    "unhashable facet": ((1, PairList([([0], 1)])), InvalidOp),
    "missing facet": ((1, {0: 1, 7: 1}), MissingFacet),
    "missing facet with coefficient 0": ((1, {0: 1, 7: 3}), MissingFacet),
    "wrong-dimension facet": ((2, {0: 1, 1: 1}), MissingFacet),
    "boundary not a cycle": ((2, {2: 1}), BrokenBoundary),
    "empty list boundary": ((0, []), InvalidOp),
    "negative int-subclass dimension": ((Dim(-1), {}), InvalidOp),
    "bool dimension": ((True, {0: 1, 1: 2}), None),
    "int-subclass dimension": ((Dim(1), {0: 1, 1: 2}), None),
    "empty mapping that is not a dict": ((0, MappingProxyType({})), None),
}


@pytest.mark.parametrize("defect", sorted(RECORD_DEFECTS))
def test_complex_and_run_stream_refuse_a_record_alike(defect):
    (dim, boundary), expected = RECORD_DEFECTS[defect]
    cx = Complex(p=3)
    assert insert_block(cx, [(0, {}), (0, {}), (1, {0: 1, 1: 2})]) == [0, 1, 2]
    raised = []
    try:
        insert_block(cx, [(dim, boundary)])
    except ZigzagError as exc:
        raised.append(type(exc))
    else:
        raised.append(None)
        assert type(cx.dims[3]) is int and cx.dims[3] == dim
    # a refused record writes nothing
    assert sorted(cx.dims) == [0, 1, 2] + [3] * (expected is None)
    base = BlockOp("F", [ForwardCell(0, 0, {}), ForwardCell(1, 0, {}),
                         ForwardCell(2, 1, {0: 1, 1: 2})])
    end = BlockOp("B", [3, 2, 1, 0])

    def blocks(dim, boundary):
        return [base, BlockOp("F", [ForwardCell(3, dim, boundary)]), end]

    # the cycle precondition goes unchecked with Morse on and validate off
    runs = [(True, True), (False, True), (False, False)]
    if expected is not BrokenBoundary:
        runs.append((True, False))
    for morse, validate in runs:
        got = outcome(blocks(dim, boundary), 3, morse, validate)
        if isinstance(got, list):  # a valid record: its plain twin's diagram
            assert got == run_stream(blocks(int(dim), dict(boundary)), p=3,
                                     morse=morse)[0]
            got = None
        raised.append(got)
    assert raised == [expected] * (1 + len(runs))


# a 2-cell on a single edge, and a 2-cell on the path a-b-c
NON_CYCLES = {
    "single edge": [("ab", 1, {"a": 1, "b": 1}), ("t", 2, {"ab": 1})],
    "path a-b-c": [("ab", 1, {"a": 1, "b": 1}), ("bc", 1, {"b": 1, "c": 1}),
                   ("t", 2, {"ab": 1, "bc": 1})],
}


@pytest.mark.parametrize("shape", sorted(NON_CYCLES))
@pytest.mark.parametrize("morse", [True, False])
def test_a_non_cycle_is_refused_in_the_callers_id(shape, morse):
    vertices = [(v, 0, {}) for v in "abc"]
    stream = [("F", vertices + NON_CYCLES[shape])]
    ops = []
    with pytest.raises(BrokenBoundary, match="cell 't' is not a cycle"):
        run_stream(stream, morse=morse, validate=True,
                   observer=lambda state, matrix, op: ops.append(op))
    assert ops == []  # refused before any op of the block ran
    if not morse:
        with pytest.raises(BrokenBoundary, match="cell 't' is not a cycle"):
            run_stream(stream, morse=False)


# -- stream files ----------------------------------------------------------------------

BAD_TOKENS = ["0", "1", "2", "-1", "+2", "9", "x", "1.5", "0x1", "F", "B"]


@st.composite
def stream_lines(draw):
    """Stream file lines: a small graph zigzag torn down at the end, then damaged.

    Undamaged draws parse and run, so both legs of the property see real
    input.  The draw adds empty blocks, duplicate facets (an edge on one
    vertex twice), bad or dropped tokens, stray lines and blank lines.
    """
    lines, vertices, edges = [], [], {}
    fresh = iter(range(100))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            parts = ["F"]
            for _ in range(draw(st.integers(0, 3))):
                new = next(fresh)
                if len(vertices) >= 2 and draw(st.booleans()):
                    a, b = draw(st.lists(st.sampled_from(vertices),
                                         min_size=2, max_size=2))
                    parts += [new, 1, 2, a, 1, b, -1]
                    edges[new] = (a, b)
                else:
                    parts += [new, 0, 0]
                    vertices.append(new)
        else:
            gone = [e for e in edges if draw(st.booleans())]
            for e in gone:
                del edges[e]
            kept = {v for pair in edges.values() for v in pair}
            gone += [v for v in vertices
                     if v not in kept and draw(st.booleans())]
            vertices = [v for v in vertices if v not in gone]
            parts = ["B"] + gone
        lines.append(" ".join(map(str, parts)))
    lines.append(" ".join(map(str, ["B"] + list(edges) + vertices)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split()
        kind = draw(st.sampled_from(["replace", "drop", "stray", "blank"]))
        if kind == "stray":
            lines.insert(at, " ".join(draw(st.lists(st.sampled_from(BAD_TOKENS),
                                                    max_size=6))))
        elif kind == "blank" or not tokens:
            lines.insert(at, "  ")
        else:
            i = draw(st.integers(0, len(tokens) - 1))
            if kind == "replace":
                tokens[i] = draw(st.sampled_from(BAD_TOKENS))
            else:
                del tokens[i]
            lines[at] = " ".join(tokens)
    return lines


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=stream_lines(), p=st.sampled_from([2, 5]))
def test_stream_files_parse_round_trip_and_run_alike(tmp_path_factory, lines, p):
    path = tmp_path_factory.getbasetemp() / "fuzz.stream"
    path.write_text("\n".join(lines) + "\n")
    try:
        blocks = parse_stream(path)
    except BadStreamLine:
        return
    path.write_text(emit_stream(blocks))
    assert parse_stream(path) == blocks
    # a run either ends or raises a named ZigzagError, the same with Morse
    assert outcome(blocks, p, morse=True) == outcome(blocks, p, morse=False)
