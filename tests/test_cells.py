"""Complex construction, incidence algebra, and the cell sign rules."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_simplicial, check_mirrors, full_triangle
from zzmorse.cells import (
    Complex,
    apply_boundary,
    chain_addmul,
    cube_dim,
    cube_facets,
    field_inv,
    iter_cubes,
    simplex_facets,
)
from zzmorse.errors import (
    BrokenBoundary,
    MissingFacet,
    NotRemovable,
    UnknownCell,
    ZeroInverse,
)


def dd_is_zero(cx):
    """True iff the boundary of every cell's boundary vanishes."""
    return not any(apply_boundary(bd, cx.facets.__getitem__, cx.p)
                   for bd in cx.facets.values())


def test_field_inv_small_values():
    assert field_inv(1, 7) == 1
    assert field_inv(2, 5) == 3
    assert field_inv(4, 7) == 2


def test_field_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        field_inv(0, 5)
    with pytest.raises(ZeroInverse):
        field_inv(10, 5)


@given(st.integers(1, 30), st.sampled_from([2, 3, 5, 7, 31]))
@settings(max_examples=100, derandomize=True, database=None)
def test_field_inv_is_inverse(a, p):
    if a % p == 0:
        a += 1
    assert (a * field_inv(a, p)) % p == 1


def test_chain_addmul_cancels():
    c = {1: 1, 2: 4}
    chain_addmul(c, {2: 1, 3: 2}, 1, 5)
    assert c == {1: 1, 3: 2}
    for p in (2, 3, 5, 7):
        c = {1: 1, 2: p - 1}
        assert chain_addmul(c, {2: 1, 3: 1}, 1, p) is c
        assert c == {1: 1, 3: 1}
        chain_addmul(c, {1: 5, 4: 1}, 3 * p, p)  # scalar = 0 mod p: no-op
        assert c == {1: 1, 3: 1}
        chain_addmul(c, {1: 1, 3: 2}, -1, p)     # negative scalar
        assert c == {3: p - 1}


def test_insert_vertex_and_edge():
    cx = Complex(p=2)
    v1 = cx.insert_cell(0, {})
    v3 = cx.insert_cell(0, {})
    e13 = cx.insert_cell(1, {v1: 1, v3: 1})
    assert cx.facets[e13] == {v1: 1, v3: 1}
    assert cx.cofacets[v1] == {e13: 1}
    assert cx.facets[v1] == {}
    check_mirrors(cx)
    assert dd_is_zero(cx)


def test_insert_missing_facet():
    cx = Complex()
    with pytest.raises(MissingFacet):
        cx.insert_cell(1, {99: 1})


def test_insert_wrong_dim_facet():
    cx = Complex()
    v = cx.insert_cell(0, {})
    with pytest.raises(MissingFacet):
        cx.insert_cell(2, {v: 1})


def test_attach_refuses_a_facet_not_yet_in_the_complex():
    # only a wrong insertion order reaches this: the door saw the facet
    cx = Complex()
    v = cx.insert_cell(0, {})
    e = cx.fresh_id()
    with pytest.raises(MissingFacet, match="not in the complex"):
        cx.attach(e, 1, {v: 1, e + 1: 1})
    assert len(cx) == 1 and not cx.cofacets[v]


def test_broken_boundary_is_refused():
    # boundary e12 + e23 over p=2 is not a cycle: its boundary is v1 + v3
    cx = Complex(p=2)
    v1 = cx.insert_cell(0, {})
    v2 = cx.insert_cell(0, {})
    v3 = cx.insert_cell(0, {})
    e12 = cx.insert_cell(1, {v1: 1, v2: 1})
    e23 = cx.insert_cell(1, {v2: 1, v3: 1})
    with pytest.raises(BrokenBoundary, match="cell 5 is not a cycle"):
        cx.insert_cell(2, {e12: 1, e23: 1})
    assert len(cx) == 5 and not cx.cofacets[e12]


def test_remove_cell_rules():
    cx = full_triangle()
    t = cx.simplex_ids[(1, 2, 3)]
    e13 = cx.simplex_ids[(1, 3)]
    with pytest.raises(NotRemovable):
        cx.remove_cell(e13)
    cx.remove_cell(t)
    assert len(cx) == 6
    cx.remove_cell(e13)  # now maximal
    with pytest.raises(UnknownCell):
        cx.remove_cell(t)
    check_mirrors(cx)


def test_remove_from_empty():
    with pytest.raises(UnknownCell):
        Complex().remove_cell(0)


def test_cellids_strictly_increase_and_never_reused():
    cx = Complex()
    a = cx.insert_cell(0, {})
    b = cx.insert_cell(0, {})
    cx.remove_cell(b)
    c = cx.insert_cell(0, {})
    assert a < b < c


def test_build_simplicial_signs():
    cx = build_simplicial([(1,), (2,), (1, 2)], p=5)
    ids = cx.simplex_ids
    assert len(cx) == 3
    # omitting vertex 1 (j=0) leaves (2,) with +1; omitting 2 (j=1) gives -1
    assert cx.facets[ids[(1, 2)]] == {ids[(2,)]: 1, ids[(1,)]: 4}


def test_build_simplicial_full_triangle_dd_zero():
    for p in (2, 3, 5):
        cx = full_triangle(p)
        assert len(cx) == 7
        assert dd_is_zero(cx)
        check_mirrors(cx)


@pytest.mark.parametrize("p", [2, 5])
def test_simplex_facets_dd_zero(p):
    for k in range(1, 5):
        for simplex in combinations(range(5), k):
            assert not apply_boundary(simplex_facets(simplex), simplex_facets, p)


def test_cube_dim_counts():
    assert sorted(map(cube_dim, iter_cubes((2, 1, 1)))) == [0, 0, 1]
    dims = sorted(map(cube_dim, iter_cubes((2, 2, 1))))
    assert dims.count(0) == 4 and dims.count(1) == 4 and dims.count(2) == 1
    assert iter_cubes((1, 1, 1)) == [(0, 0, 0)]


def test_cube_facets_dd_zero():
    for p in (2, 5):
        for dims in ((2, 2, 2), (3, 2, 1), (2, 3, 2)):
            for cube in iter_cubes(dims):
                assert not apply_boundary(cube_facets(cube), cube_facets, p)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=100, derandomize=True, database=None)
def test_cubical_cell_count(nx, ny, nz):
    assert len(iter_cubes((nx, ny, nz))) == (2 * nx - 1) * (2 * ny - 1) * (2 * nz - 1)
