"""Complex construction, incidence algebra, and the cell sign rules."""

import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (build_simplicial, check_mirrors, full_triangle,
                      insert_block)
from zzmorse.cells import (
    Complex,
    apply_boundary,
    chain_addmul,
    check_prime,
    cube_facets,
    field_inv,
    simplex_facets,
)
from zzmorse.errors import (
    BadParameters,
    BrokenBoundary,
    MissingFacet,
    NotRemovable,
    UnknownCell,
    ZeroInverse,
)
from zzmorse.generators import ScalarImage, levelset_stream


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


def test_check_prime_agrees_with_trial_division():
    for n in range(-3, 20_000):
        prime = n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        if prime:
            assert check_prime(n) == n
        else:
            with pytest.raises(BadParameters, match="is not prime"):
                check_prime(n)


# Carmichael numbers; 3215031751, a strong pseudoprime to the bases 2, 3, 5
# and 7; and 3825123056546413051, one to every prime base up to 31, which
# only the base 37 exposes
@pytest.mark.parametrize("n", [561, 41041, 825265, 3215031751,
                               3825123056546413051])
def test_check_prime_refuses_pseudoprimes(n):
    with pytest.raises(BadParameters, match="is not prime"):
        check_prime(n)


@pytest.mark.parametrize("p", [100_000_000_000_031, 2 ** 61 - 1])
def test_check_prime_accepts_a_large_prime_at_once(p):
    start = time.perf_counter()
    assert check_prime(p) == p
    # trial division up to sqrt(p) takes about 0.7 s for the smaller p
    assert time.perf_counter() - start < 0.05
    assert Complex(p).p == p


@pytest.mark.parametrize("p", [2 ** 64, 2 ** 64 + 1, 2 ** 100 - 1])
def test_check_prime_refuses_a_field_at_or_above_its_bound(p):
    with pytest.raises(BadParameters, match=r"not below 2\*\*64"):
        check_prime(p)


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
    v1, v3 = insert_block(cx, [(0, {}), (0, {})])
    [e13] = insert_block(cx, [(1, {v1: 1, v3: 1})])
    assert cx.facets[e13] == {v1: 1, v3: 1}
    assert cx.cofacets[v1] == {e13: 1}
    assert cx.facets[v1] == {}
    check_mirrors(cx)
    assert dd_is_zero(cx)


def test_insert_missing_facet():
    cx = Complex()
    with pytest.raises(MissingFacet):
        insert_block(cx, [(1, {99: 1})])


def test_insert_wrong_dim_facet():
    cx = Complex()
    [v] = insert_block(cx, [(0, {})])
    with pytest.raises(MissingFacet):
        insert_block(cx, [(2, {v: 1})])


def snapshot(cx):
    """Copies of cx's four cell maps, inner chains included, and its next seq."""
    return ({c: dict(bd) for c, bd in cx.facets.items()},
            {c: dict(up) for c, up in cx.cofacets.items()},
            dict(cx.dims), dict(cx.seq), cx._next_seq)


def test_attach_refuses_a_facet_not_yet_in_the_complex():
    # only a wrong insertion order reaches this: the door saw the facet.
    # The missing facet comes after two live ones, whose back-edges attach
    # writes before it meets the gap, so it must take both back.
    cx = Complex()
    v1, v2 = insert_block(cx, [(0, {}), (0, {})])
    [e] = insert_block(cx, [(1, {v1: 1, v2: 1})])
    before = snapshot(cx)
    f = cx.fresh_id()
    missing = f + 1
    with pytest.raises(MissingFacet, match="facet %d of cell %d is not in the "
                       "complex" % (missing, f)):
        cx.attach(f, 1, {v1: 1, v2: 1, missing: 1})
    assert snapshot(cx) == before
    assert cx.cofacets[v1] == cx.cofacets[v2] == {e: 1}
    check_mirrors(cx)


def test_broken_boundary_is_refused():
    # boundary e12 + e23 over p=2 is not a cycle: its boundary is v1 + v3
    cx = Complex(p=2)
    v1, v2, v3 = insert_block(cx, [(0, {})] * 3)
    e12, e23 = insert_block(cx, [(1, {v1: 1, v2: 1}), (1, {v2: 1, v3: 1})])
    with pytest.raises(BrokenBoundary, match="cell 5 is not a cycle"):
        insert_block(cx, [(2, {e12: 1, e23: 1})])
    assert len(cx.dims) == 5 and not cx.cofacets[e12]


def test_remove_cell_rules():
    cx = full_triangle()
    t = cx.simplex_ids[(1, 2, 3)]
    e13 = cx.simplex_ids[(1, 3)]
    with pytest.raises(NotRemovable):
        cx.remove_cell(e13)
    cx.remove_cell(t)
    assert len(cx.dims) == 6
    cx.remove_cell(e13)  # now maximal
    with pytest.raises(UnknownCell):
        cx.remove_cell(t)
    check_mirrors(cx)


def test_a_refused_removal_leaves_the_complex_unchanged():
    cx = full_triangle()
    t = cx.simplex_ids[(1, 2, 3)]
    e13 = cx.simplex_ids[(1, 3)]
    before = snapshot(cx)
    with pytest.raises(UnknownCell, match="^99$"):
        cx.remove_cell(99)
    assert snapshot(cx) == before
    with pytest.raises(NotRemovable, match="cell %d still has cofacets" % e13):
        cx.remove_cell(e13)
    assert snapshot(cx) == before
    cx.remove_cell(t)
    before = snapshot(cx)
    with pytest.raises(UnknownCell, match="^%d$" % t):
        cx.remove_cell(t)
    assert snapshot(cx) == before
    check_mirrors(cx)


def test_remove_from_empty():
    with pytest.raises(UnknownCell):
        Complex().remove_cell(0)


def test_cellids_strictly_increase_and_never_reused():
    cx = Complex()
    a, b = insert_block(cx, [(0, {}), (0, {})])
    cx.remove_cell(b)
    [c] = insert_block(cx, [(0, {})])
    assert a < b < c


def test_build_simplicial_signs():
    cx = build_simplicial([(1,), (2,), (1, 2)], p=5)
    ids = cx.simplex_ids
    assert len(cx.dims) == 3
    # omitting vertex 1 (j=0) leaves (2,) with +1; omitting 2 (j=1) gives -1
    assert cx.facets[ids[(1, 2)]] == {ids[(2,)]: 1, ids[(1,)]: 4}


def test_build_simplicial_full_triangle_dd_zero():
    for p in (2, 3, 5):
        cx = full_triangle(p)
        assert len(cx.dims) == 7
        assert dd_is_zero(cx)
        check_mirrors(cx)


@pytest.mark.parametrize("p", [2, 5])
def test_simplex_facets_dd_zero(p):
    for k in range(1, 5):
        for simplex in combinations(range(5), k):
            assert not apply_boundary(simplex_facets(simplex), simplex_facets, p)


def doubled_cubes(dims):
    """Every cube of an (nx, ny, nz) grid, in doubled coordinates."""
    return list(product(*(range(2 * n - 1) for n in dims)))


def test_cube_facets_dd_zero():
    for p in (2, 5):
        for dims in ((2, 2, 2), (3, 2, 1), (2, 3, 2)):
            for cube in doubled_cubes(dims):
                assert not apply_boundary(cube_facets(cube), cube_facets, p)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=100, derandomize=True, database=None)
def test_cubical_cell_count(nx, ny, nz):
    # a window holding every value emits every cube of the grid once
    image = ScalarImage((nx, ny, nz), [0.0] * (nx * ny * nz))
    cubes = [c.cell for c in levelset_stream(image, (0.0, 1.0))[0][0].cells]
    assert len(cubes) == (2 * nx - 1) * (2 * ny - 1) * (2 * nz - 1)
    assert sorted(cubes) == doubled_cubes((nx, ny, nz))
