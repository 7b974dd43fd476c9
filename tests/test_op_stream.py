"""The engine's atomic op sequence: pinned by digest, and the layers it uses.

``run_stream`` calls its observer after every atomic op.  Each digest below
hashes the whole op sequence that the observer sees (each op's type name and
fields, boundaries in sorted order) together with ``(intervals, Metrics)``,
for both pipelines and for the validated, shadowed run.  The digests were recorded before op application moved
into ``run_stream``'s loop, so they show that the engine still applies the
same ops, in the same order, and that the observer sees every one of them.
The last two tests count the calls into the layers that ``zzmorse.kernel``
and ``zzmorse.stream`` look up by name, and check that a block the door
sends past the matcher gets the ops the matcher would give it.
"""

import hashlib
from collections import Counter

import pytest

from zzmorse import kernel, stream

from zzmorse.generators import (circle_points, even_levels, fourier_image,
                                levelset_stream, oscillating_rips_stream,
                                random_block_stream)
from zzmorse.kernel import run_stream
from zzmorse.morse import coreduce
from zzmorse.stream import InsertCritical, InsertPair, Split, atomize_forward


def _field(value):
    return tuple(sorted(value.items())) if isinstance(value, dict) else value


def op_digest(streams, p):
    """sha256 over every op the observer sees and every run's output."""
    h = hashlib.sha256()

    def observe(state, matrix, op):
        h.update(repr((type(op).__name__,
                       tuple(_field(v) for v in op))).encode())

    for blocks in streams:
        for morse, validate in ((True, False), (False, False), (True, True)):
            intervals, metrics = run_stream(blocks, p=p, morse=morse,
                                            validate=validate, observer=observe)
            h.update(repr((morse, validate, intervals, metrics)).encode())
    return h.hexdigest()


RANDOM = {
    2: "475fbacbde20fbc2672cb2b39ff0e33404e79bfd615e49a201a4884b7a00cb11",
    3: "ef37e23a7521a821366a1cfae36df9f676dc9e3b82dad9a1bbdc70ca002ccafd",
    5: "6cadf7b3623348c316237e6472a7edcda053588450e195396fd6e1c9e6abc6e8",
}


@pytest.mark.parametrize("p", sorted(RANDOM))
def test_random_streams_op_digest(p):
    streams = [random_block_stream(seed, p=p) for seed in range(200)]
    assert op_digest(streams, p) == RANDOM[p]


def test_rips_op_digest():
    blocks, _ = oscillating_rips_stream(circle_points(30, seed=7), 4, 6)
    assert op_digest([blocks], 2) == \
        "117f620a75bc3b3f866994ef2187daf49fef189f9fb4e22df2c0e4d41515c37d"


def test_levelset_op_digest():
    image = fourier_image((9, 9, 9), seed=11, terms=3)
    blocks, _ = levelset_stream(image, even_levels(image, 0.2))
    assert op_digest([blocks], 2) == \
        "934d571ec6ffdc9bcbc4b72d2caf4e8600ada4dd49b0057f7ee8b58582098d6b"


@pytest.mark.parametrize("morse", [True, False])
def test_layers_run_per_split_and_per_multi_cell_block(monkeypatch, morse):
    # apply_atomic runs once per Split; the matcher and atomize_forward run
    # once per insertion block with a facet inside it (so of two or more
    # cells), and never without a matching step; a flow runs once per split
    # and once per critical insertion with a non-empty boundary, never for a
    # cell with no facets
    calls = Counter()

    def count(name, min_records):
        fn = getattr(kernel, name)

        def counted(*args):
            if min_records:
                assert len(args[0]) >= min_records
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(kernel, name, counted)

    count("apply_atomic", 0)
    count("coreduce", 2)
    count("atomize_forward", 2)
    flows = Counter()
    morse_boundary = stream.morse_boundary

    def counted_flow(*args, **kwargs):
        flows["calls"] += 1
        return morse_boundary(*args, **kwargs)

    monkeypatch.setattr(stream, "morse_boundary", counted_flow)
    splits = []

    def observe(state, matrix, op):
        if type(op) is Split:
            splits.append(op)
        elif type(op) is InsertCritical and op.boundary:
            flows["expected"] += 1

    lone = multi = inner = 0
    for seed in range(100):
        blocks = random_block_stream(seed, p=5)
        for direction, cells in blocks:
            if direction == "F":
                lone += len(cells) == 1
                multi += len(cells) >= 2
                ids = {c.cell for c in cells}
                inner += any(f in ids for c in cells for f in c.boundary)
        run_stream(blocks, p=5, morse=morse, observer=observe)
    assert lone and 0 < inner < multi and (splits or not morse)
    assert calls["apply_atomic"] == len(splits)
    assert calls["atomize_forward"] == calls["coreduce"] == \
        (inner if morse else 0)
    assert flows["expected"] and \
        flows["calls"] == flows["expected"] + len(splits)


def mixed_blocks():
    """Insertion blocks of mixed dimension with no facet inside the block,
    listed out of (dim, id) order, then taken down again."""
    return [
        ("F", [("a", 0, {}), ("b", 0, {}), ("c", 0, {})]),
        ("F", [("bc", 1, {"b": -1, "c": 1}), ("d", 0, {}),
               ("ab", 1, {"a": -1, "b": 1}), ("e", 0, {})]),
        ("F", [("ac", 1, {"a": -1, "c": 1}), ("f", 0, {}),
               ("de", 1, {"d": -1, "e": 1})]),
        ("F", [("g", 0, {}), ("abc", 2, {"ab": 1, "bc": 1, "ac": -1}),
               ("ad", 1, {"a": -1, "d": 1})]),
        ("B", ["abc", "ad", "de", "ac", "ab", "bc"]),
        ("B", ["a", "b", "c", "d", "e", "f", "g"]),
    ]


def test_a_block_that_cannot_pair_gets_the_matchers_ops(monkeypatch):
    # the door sends a block with no facet inside it past the matcher; its
    # ops are still the ones coreduce and atomize_forward would give
    translate = kernel.translate_forward
    seen = []  # (records, inner, the block's ops)

    def spy(*args):
        records, inner = translate(*args)
        seen.append((records, inner, []))
        return records, inner

    def observe(state, matrix, op):
        if type(op) in (InsertCritical, InsertPair):
            seen[-1][2].append(op)

    monkeypatch.setattr(kernel, "translate_forward", spy)
    streams = [random_block_stream(seed, p=5) for seed in range(40)]
    for blocks in streams + [mixed_blocks()]:
        run_stream(blocks, p=5, validate=True, observer=observe)
    outside = [(r, ops) for r, inner, ops in seen if not inner]
    assert outside and len(outside) < len(seen)
    assert any(len({dim for dim, _ in r.values()}) > 1 for r, _ in outside)
    for records, _, ops in seen:
        assert ops == atomize_forward(records, coreduce(records))
