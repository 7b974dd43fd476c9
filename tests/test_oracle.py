"""Ground-truth oracle: snapshot homology, induced maps, interval decomposition."""

import numpy as np
import pytest

from conftest import blocks_to_stream, make_rng, random_block_ops
from zzmorse.errors import InvalidOp, MissingFacet, NotRemovable, TooLarge
from zzmorse.linalg import rref
from zzmorse.oracle import (
    ExplicitModule,
    betti_numbers,
    block_diagram,
    block_module,
    decompose_module,
    rank_mod,
)
from zzmorse.stream import BlockOp, ForwardCell

# forward records, in the stream format that run_stream reads
CIRCLE = [
    ("v1", 0, {}),
    ("v2", 0, {}),
    ("v3", 0, {}),
    ("e12", 1, {"v1": 1, "v2": 1}),
    ("e23", 1, {"v2": 1, "v3": 1}),
    ("e13", 1, {"v1": 1, "v3": 1}),
]
FILL = [("t", 2, {"e12": 1, "e23": 1, "e13": 1})]
CIRCLE_OUT = ("B", ["e12", "e23", "e13", "v1", "v2", "v3"])


def mat(rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


# -- decomposition ----------------------------------------------------------

def test_single_space():
    m = ExplicitModule([1], [], p=2)
    assert decompose_module(m) == [(1, 1)]


def test_identity_arrow():
    m = ExplicitModule([1, 1], [("fwd", mat([[1]]))], p=2)
    assert decompose_module(m) == [(1, 2)]


def test_zero_arrow():
    m = ExplicitModule([1, 1], [("fwd", mat([[0]]))], p=2)
    assert decompose_module(m) == [(1, 1), (2, 2)]


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidOp):
        ExplicitModule([1, 2], [("fwd", mat([[1]]))], p=2)


def test_nontrivial_overlap():
    # F <-[1 0]- F^2 -[0 1]-> F: the span of (1, e1+e2, 1) is an interval
    # submodule over [1,3] but not a summand; the decomposition is two
    # staggered intervals.
    m = ExplicitModule(
        [1, 2, 1],
        [("bwd", mat([[1, 0]])), ("fwd", mat([[0, 1]]))],
        p=2,
    )
    assert decompose_module(m) == [(1, 2), (2, 3)]


def test_nontrivial_overlap_mirrored():
    m = ExplicitModule(
        [1, 2, 1],
        [("bwd", mat([[0, 1]])), ("fwd", mat([[1, 0]]))],
        p=5,
    )
    assert decompose_module(m) == [(1, 2), (2, 3)]


def test_zero_space_splits():
    m = ExplicitModule(
        [1, 0, 1],
        [("fwd", np.zeros((0, 1), dtype=np.int64)),
         ("bwd", np.zeros((0, 1), dtype=np.int64))],
        p=2,
    )
    assert decompose_module(m) == [(1, 1), (3, 3)]


# -- block modules ----------------------------------------------------------

def test_vertex_in_and_out():
    m = block_module([("F", [("v", 0, {})]), ("B", ["v"])], dim=0)
    assert m.spaces == [0, 1, 0]
    assert m.maps[0][0] == "fwd" and m.maps[0][1].shape == (1, 0)
    assert m.maps[1][0] == "bwd" and m.maps[1][1].shape == (1, 0)
    assert decompose_module(m) == [(2, 2)]


def test_circle_identity_arrow():
    m = block_module([("F", CIRCLE), ("F", [])], dim=1)
    assert m.spaces == [0, 1, 1]
    direction, f = m.maps[1]
    assert direction == "fwd"
    assert f.shape == (1, 1) and f[0, 0] == 1


def test_fill_then_unfill():
    m = block_module([("F", CIRCLE + FILL), ("B", ["t"])], dim=1)
    assert m.spaces == [0, 0, 1]
    direction, f = m.maps[1]
    assert direction == "bwd" and f.shape == (0, 1)


def test_circle_h1_lifecycle():
    blocks = [("F", CIRCLE), ("F", FILL), ("B", ["t"]), CIRCLE_OUT]
    m = block_module(blocks, dim=1)
    assert m.spaces == [0, 1, 0, 1, 0]
    assert decompose_module(m) == [(2, 2), (4, 4)]


def test_block_diagram_circle_in_out():
    assert block_diagram([("F", CIRCLE), CIRCLE_OUT]) == [
        (0, 1, 1),
        (1, 1, 1),
    ]


def test_block_diagram_vertex():
    assert block_diagram([("F", [("v", 0, {})]), ("B", ["v"])]) == [(0, 1, 1)]


def test_block_diagram_intra_block_class_dropped():
    # second component is born and merged away inside block 1
    blocks = [
        BlockOp("F", [ForwardCell(0, 0, {}), ForwardCell(1, 0, {}),
                      ForwardCell(2, 1, {0: 1, 1: 1})]),
        BlockOp("B", [2, 0, 1]),
    ]
    assert block_diagram(blocks) == [(0, 1, 1)]


def test_blocks_are_sets():
    # a block may list a facet after its cofacet, as run_stream allows
    blocks = [("F", [("e", 1, {"a": 1, "b": 1}), ("a", 0, {}), ("b", 0, {})]),
              ("B", ["a", "b", "e"])]
    assert block_diagram(blocks) == [(0, 1, 1)]


def test_replay_names_the_broken_precondition():
    with pytest.raises(MissingFacet):
        block_diagram([("F", [("e", 1, {"a": 1})])])
    with pytest.raises(NotRemovable, match="'a' is a facet of 'e'"):
        block_diagram([("F", [("a", 0, {}), ("e", 1, {"a": 1})]), ("B", ["a"])])
    with pytest.raises(InvalidOp, match="unknown block direction"):
        block_diagram([("i", [("a", 0, {})])])


def test_nonempty_end_rejected():
    with pytest.raises(InvalidOp):
        block_diagram([("F", [("v", 0, {})])])


def test_too_large():
    with pytest.raises(TooLarge):
        block_module([("F", [(k, 0, {}) for k in range(201)])], dim=0)


# -- betti helper -----------------------------------------------------------

def test_betti_numbers():
    assert betti_numbers({}) == []
    state = {c: (d, b) for c, d, b in CIRCLE}
    assert betti_numbers(state) == [1, 1]
    state["t"] = (2, {"e12": 1, "e23": 1, "e13": 1})
    assert betti_numbers(state) == [1]


def test_betti_two_spheres_mod5():
    state = {
        "a": (0, {}), "b": (0, {}),
        "s": (1, {}), "u": (1, {}),  # loops attached at a point
    }
    assert betti_numbers(state, p=5) == [2, 2]


# -- properties on random streams -------------------------------------------

def _conjugate(mod, rng):
    """Change basis of every space by a random invertible matrix."""
    p = mod.p
    bases = []
    for d in mod.spaces:
        while True:
            g = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)],
                         dtype=np.int64).reshape(d, d)
            if rank_mod(g, p) == d:
                bases.append(g)
                break
    inverses = []
    for g in bases:
        d = g.shape[0]
        aug, piv = np.hstack([g, np.eye(d, dtype=np.int64)]), None
        red, piv = rref(aug, p)
        assert piv == list(range(d))
        inverses.append(red[:, d:])
    maps = []
    for i, (direction, f) in enumerate(mod.maps):
        src, dst = (i, i + 1) if direction == "fwd" else (i + 1, i)
        maps.append((direction, bases[dst] @ f @ inverses[src] % p))
    return ExplicitModule(mod.spaces, maps, p)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("p", [2, 5])
def test_multiplicity_sums_match_space_dims(seed, p):
    rng = make_rng(1000 * p + seed)
    blocks = blocks_to_stream(random_block_ops(rng, p=p))
    for dim in range(3):
        mod = block_module(blocks, dim, p)
        intervals = decompose_module(mod)
        for pos in range(1, len(mod.spaces) + 1):
            covering = sum(1 for b, d in intervals if b <= pos <= d)
            assert covering == mod.spaces[pos - 1]


@pytest.mark.parametrize("seed", range(10))
def test_decomposition_basis_invariant(seed):
    rng = make_rng(seed)
    p = rng.choice([2, 5])
    blocks = blocks_to_stream(random_block_ops(rng, p=p))
    for dim in range(3):
        mod = block_module(blocks, dim, p)
        assert decompose_module(_conjugate(mod, rng)) == decompose_module(mod)
