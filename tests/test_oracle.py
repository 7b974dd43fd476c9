"""Ground-truth oracle: snapshot homology, induced maps, interval decomposition."""

import numpy as np
import pytest

from audits import betti_numbers, block_module
from conftest import make_rng
from zzmorse.errors import (BadParameters, BrokenBoundary, InvalidOp,
                            MissingFacet, NotRemovable, TooLarge, UnknownCell,
                            ZigzagError)
from zzmorse.generators import random_block_stream
from zzmorse.kernel import run_stream
from zzmorse.linalg import rref
from zzmorse.oracle import (
    ExplicitModule,
    block_diagram,
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


@pytest.mark.parametrize("p", [4, 2.0])
def test_a_module_over_a_field_that_is_not_prime_is_refused(p):
    with pytest.raises(BadParameters, match="not prime"):
        ExplicitModule([1, 1], [("fwd", mat([[2]]))], p)


def test_an_unknown_arrow_direction_is_refused():
    with pytest.raises(InvalidOp, match="direction 'up'"):
        ExplicitModule([1, 2], [("up", mat([[1, 0]]))], 2)


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


def refusal(engine, blocks, **options):
    """The class and message of the ZigzagError a run raises."""
    with pytest.raises(ZigzagError) as refused:
        engine(blocks, **options)
    return type(refused.value), str(refused.value)


def assert_refused_as_at_the_door(blocks, p=2):
    """The oracle raises what run_stream raises, class and message alike."""
    expected = refusal(block_diagram, blocks, p=p)
    for validate in (False, True):
        assert refusal(run_stream, blocks, p=p, validate=validate) == expected
    return expected


def test_replay_names_the_broken_precondition():
    with pytest.raises(MissingFacet):
        block_diagram([("F", [("e", 1, {"a": 1})])])
    with pytest.raises(NotRemovable,
                       match="cell 'a' has a cofacet 'e' outside the block"):
        block_diagram([("F", [("a", 0, {}), ("e", 1, {"a": 1})]), ("B", ["a"])])
    with pytest.raises(InvalidOp, match="unknown block direction"):
        block_diagram([("i", [("a", 0, {})])])
    with pytest.raises(InvalidOp, match="cell id 'a' is already alive"):
        block_diagram([("F", [("a", 0, {})]), ("F", [("a", 0, {})])])
    with pytest.raises(UnknownCell, match="'b'"):
        block_diagram([("F", [("a", 0, {})]), ("B", ["b"])])


def test_an_id_removed_twice_in_one_block_is_refused_as_at_the_door():
    blocks = [("F", [("a", 0, {})]), ("B", ["a", "a"])]
    assert assert_refused_as_at_the_door(blocks) == (
        InvalidOp, "cell id 'a' removed twice in one block")


# malformed streams the oracle refuses with the same error as run_stream
MALFORMED = {
    "unhashable id": [("F", [([1], 0, {})])],
    "short record": [("F", [("a", 0)])],
    "boundary not a mapping": [("F", [("a", 0, 5)]), ("B", ["a"])],
    "block not a pair": [None],
    "dimension not an integer": [("F", [("a", "x", {})]), ("B", ["a"])],
    "float coefficient": [("F", [("a", 0, {}), ("b", 0, {}),
                                 ("e", 1, {"a": 1.5, "b": 1})]),
                          ("B", ["e", "a", "b"])],
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_a_malformed_record_is_refused_as_at_the_door(defect):
    refused, _ = assert_refused_as_at_the_door(MALFORMED[defect], p=3)
    assert refused is InvalidOp


# streams that break a precondition of the door -> its error and message
BROKEN = {
    "unknown id": ([("F", [("a", 0, {})]), ("B", ["b"])],
                   UnknownCell, "cell id 'b' is not alive"),
    "cofacet left behind": (
        [("F", [("a", 0, {}), ("e", 1, {"a": 1})]), ("B", ["a"])],
        NotRemovable, "cell 'a' has a cofacet 'e' outside the block"),
    "id inserted twice": ([("F", [("a", 0, {})]), ("F", [("a", 0, {})])],
                          InvalidOp, "cell id 'a' is already alive"),
    "id inserted twice in one block": ([("F", [("a", 0, {}), ("a", 0, {})])],
                                       InvalidOp, "cell id 'a' is already alive"),
    "unknown direction": ([("i", [("a", 0, {})])],
                          InvalidOp, "unknown block direction 'i'"),
    "stream not iterable": (5, InvalidOp, "stream 5 is not iterable"),
    "missing facet": ([("F", [("e", 1, {"a": 1})])],
                      MissingFacet, "facet 'a' is not alive"),
}


@pytest.mark.parametrize("defect", sorted(BROKEN))
def test_a_broken_precondition_is_refused_as_at_the_door(defect):
    blocks, error, message = BROKEN[defect]
    assert assert_refused_as_at_the_door(blocks) == (error, message)


# a 2-cell on a single edge, and a 2-cell on the path a-b-c: with Morse on
# and validate off run_stream may give a diagram; the oracle never does
NON_CYCLES = {
    "single edge": [("ab", 1, {"a": 1, "b": 1}), ("t", 2, {"ab": 1})],
    "path a-b-c": [("ab", 1, {"a": 1, "b": 1}), ("bc", 1, {"b": 1, "c": 1}),
                   ("t", 2, {"ab": 1, "bc": 1})],
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("shape", sorted(NON_CYCLES))
def test_a_non_cycle_is_refused_as_at_the_door(shape, p):
    records = [(v, 0, {}) for v in "abc"] + NON_CYCLES[shape]
    blocks = [("F", records), ("B", [r[0] for r in records])]
    expected = (BrokenBoundary, "boundary of cell 't' is not a cycle")
    assert refusal(block_diagram, blocks, p=p) == expected
    for morse in (True, False):
        assert refusal(run_stream, blocks, p=p, morse=morse,
                       validate=True) == expected


@pytest.mark.parametrize("morse", [True, False])
def test_ids_of_mixed_types_give_the_engines_diagram(morse):
    blocks = [("F", [(1, 0, {}), ("a", 0, {}), ((2, 3), 1, {1: 1, "a": 1}),
                     (2.5, 0, {})]),
              ("B", [(2, 3)]),
              ("B", [1, "a", 2.5])]
    diagram = [(0, 1, 2), (0, 1, 2), (0, 2, 2)]
    assert block_diagram(blocks) == diagram
    assert run_stream(blocks, morse=morse)[0] == diagram


def test_nonempty_end_rejected():
    assert assert_refused_as_at_the_door([("F", [("v", 0, {})])]) == (
        InvalidOp, "stream must end at the empty complex")


@pytest.mark.parametrize("p", [0, 1, 4, 2.0])
def test_a_field_characteristic_that_is_not_prime_is_refused(p):
    blocks = [("F", [("a", 0, {}), ("b", 0, {})]), ("B", ["a", "b"])]
    assert block_diagram(blocks, p=2) == [(0, 1, 1), (0, 1, 1)]
    with pytest.raises(BadParameters, match="not prime"):
        block_diagram(blocks, p=p)
    with pytest.raises(BadParameters, match="not prime"):
        block_module(blocks, 0, p=p)


@pytest.mark.parametrize("seed", range(4))
def test_the_largest_prime_with_exact_int64_products_agrees(seed):
    p = 3_037_000_493  # (p - 1)**2 < 2**63
    blocks = random_block_stream(seed, p=p)
    assert block_diagram(blocks, p) == [tuple(iv) for iv
                                        in run_stream(blocks, p=p)[0]]


@pytest.mark.parametrize("p", [3_037_000_507, 4_294_967_291, 2 ** 61 - 1])
def test_a_prime_above_the_int64_bound_is_refused(p):
    # int64 row operations would overflow and give a wrong diagram
    blocks = [("F", [("a", 0, {}), ("b", 0, {})]), ("B", ["a", "b"])]
    with pytest.raises(BadParameters, match="above 3037000493"):
        block_diagram(blocks, p)
    with pytest.raises(BadParameters, match="above 3037000493"):
        ExplicitModule([1, 1], [("fwd", mat([[1]]))], p)


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
    blocks = random_block_stream(rng, p=p)
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
    blocks = random_block_stream(rng, p=p)
    for dim in range(3):
        mod = block_module(blocks, dim, p)
        assert decompose_module(_conjugate(mod, rng)) == decompose_module(mod)
