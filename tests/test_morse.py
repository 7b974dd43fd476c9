"""Coreduction matchings and gradient-path boundary computation.

The reference here is literal: enumerate every simple alternating path and
evaluate its multiplicity with the product formula, then compare against the
traversal-based implementation.
"""

import pytest

from audits import betti_numbers
from conftest import (build_simplicial, cell_records, full_triangle,
                      insert_block, is_acyclic_matching, make_rng,
                      random_complex)
from zzmorse.cells import Complex, field_inv
from zzmorse.errors import CyclicMatching, NotCritical, UnknownCell
from zzmorse.morse import Matching, coreduce, morse_boundary, morse_coboundary


def circle(p=2):
    return build_simplicial([(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)], p=p)


def circle_matching(cx):
    ids = cx.simplex_ids
    m = Matching()
    m.add_pair(ids[(2,)], ids[(1, 2)])
    m.add_pair(ids[(3,)], ids[(2, 3)])
    m.critical.add(ids[(1,)])
    m.critical.add(ids[(1, 3)])
    return m


# -- reference: explicit path enumeration ------------------------------------

def alternating_paths(cx, m, nu):
    """Every simple path nu, t1, k1, ..., tr, kr, mu ending at a critical mu."""
    out = []

    def extend(path, seen):
        king = path[-1]
        for rho in cx.facets[king]:
            if rho == path[-2] or rho in seen:
                continue
            if rho in m.critical:
                out.append(path + [rho])
            elif rho in m.pair_up:
                up = m.pair_up[rho]
                extend(path + [rho, up], seen | {rho, up})

    for tau in cx.facets[nu]:
        if tau in m.critical:
            out.append([nu, tau])
        elif tau in m.pair_up:
            up = m.pair_up[tau]
            extend([nu, tau, up], {nu, tau, up})
    return out


def path_multiplicity(cx, path, p):
    nu, mu = path[0], path[-1]
    inner = path[1:-1]
    r = len(inner) // 2
    if r == 0:
        return cx.facets[nu][mu] % p
    taus, kings = inner[0::2], inner[1::2]
    val = cx.facets[nu][taus[0]] * (-1) ** r
    for i in range(r):
        val *= field_inv(cx.facets[kings[i]][taus[i]], p)
    for i in range(r - 1):
        val *= cx.facets[kings[i]][taus[i + 1]]
    val *= cx.facets[kings[-1]][mu]
    return val % p


def brute_boundary(cx, m, nu):
    out = {}
    for path in alternating_paths(cx, m, nu):
        mu = path[-1]
        out[mu] = (out.get(mu, 0) + path_multiplicity(cx, path, cx.p)) % cx.p
    return {c: v for c, v in out.items() if v}


# -- frozen fixture values ----------------------------------------------------

@pytest.mark.parametrize("p", [2, 5])
def test_circle_boundary_cancels(p):
    cx = circle(p)
    m = circle_matching(cx)
    e13 = cx.simplex_ids[(1, 3)]
    assert len(alternating_paths(cx, m, e13)) == 2
    assert morse_boundary(cx, m, e13) == {}
    assert morse_boundary(cx, m, cx.simplex_ids[(1,)]) == {}


def test_filled_triangle_vertex_boundary():
    cx = full_triangle()
    ids = cx.simplex_ids
    m = Matching()
    m.add_pair(ids[(2,)], ids[(1, 2)])
    m.add_pair(ids[(3,)], ids[(2, 3)])
    m.add_pair(ids[(1, 3)], ids[(1, 2, 3)])
    m.critical.add(ids[(1,)])
    assert morse_boundary(cx, m, ids[(1,)]) == {}


def test_coboundary_after_unpairing():
    cx = circle()
    m = circle_matching(cx)
    ids = cx.simplex_ids
    assert m.unpair(ids[(3,)]) is None
    assert m.critical == {ids[(1,)], ids[(1, 3)], ids[(3,)], ids[(2, 3)]}
    cob = morse_coboundary(cx, m, ids[(3,)])
    assert cob == {ids[(1, 3)]: 1, ids[(2, 3)]: 1}
    # a maximal critical cell has empty coboundary
    assert morse_coboundary(cx, m, ids[(2, 3)]) == {}


def test_not_critical_raises():
    cx = circle()
    m = circle_matching(cx)
    with pytest.raises(NotCritical):
        morse_boundary(cx, m, cx.simplex_ids[(2,)])
    with pytest.raises(NotCritical):
        morse_coboundary(cx, m, cx.simplex_ids[(1, 2)])


def test_uncovered_cell_raises():
    cx = circle()
    m = Matching()
    m.critical.add(cx.simplex_ids[(1, 3)])
    with pytest.raises(UnknownCell):
        morse_boundary(cx, m, cx.simplex_ids[(1, 3)])


def test_cyclic_matching_detected_in_traversal():
    tris = [(1,), (2,), (3,), (4,), (1, 2), (2, 3), (1, 3), (1, 4)]
    cx = build_simplicial(tris)
    ids = cx.simplex_ids
    m = Matching()
    m.add_pair(ids[(1,)], ids[(1, 2)])
    m.add_pair(ids[(2,)], ids[(2, 3)])
    m.add_pair(ids[(3,)], ids[(1, 3)])
    m.critical.add(ids[(4,)])
    m.critical.add(ids[(1, 4)])
    assert not is_acyclic_matching(cx, m)
    with pytest.raises(CyclicMatching):
        morse_boundary(cx, m, ids[(1, 4)])


# -- acyclicity checker -------------------------------------------------------

def test_acyclicity_examples():
    cx = circle()
    ids = cx.simplex_ids
    assert is_acyclic_matching(cx, Matching())
    assert is_acyclic_matching(cx, circle_matching(cx))
    bad = Matching()
    bad.add_pair(ids[(1,)], ids[(1, 2)])
    bad.add_pair(ids[(2,)], ids[(2, 3)])
    bad.add_pair(ids[(3,)], ids[(1, 3)])
    assert not is_acyclic_matching(cx, bad)


# -- coreduction ---------------------------------------------------------------

def test_coreduce_filled_triangle():
    cx = full_triangle()
    m = coreduce(cell_records(cx))
    assert len(m.pair_up) == 3
    assert len(m.critical) == 1
    (crit,) = m.critical
    assert cx.dims[crit] == 0
    assert is_acyclic_matching(cx, m)


def test_coreduce_single_vertex():
    cx = Complex()
    [v] = insert_block(cx, [(0, {})])
    m = coreduce(cell_records(cx, {v}))
    assert m.critical == {v} and not m.pair_up


def test_coreduce_cap_over_frozen_circle():
    cx = circle()
    ids = cx.simplex_ids
    [t] = insert_block(cx, [(2, {ids[(1, 2)]: 1, ids[(2, 3)]: 1,
                                 ids[(1, 3)]: 1})])
    m = coreduce(cell_records(cx, {t}))
    assert m.critical == {t}


def test_coreduce_deterministic():
    rng = make_rng(7)
    cx = random_complex(rng, p=2, n=12)
    a = coreduce(cell_records(cx))
    b = coreduce(cell_records(cx))
    assert a.critical == b.critical and a.pair_up == b.pair_up


def literal_coreduce(records):
    """The order contract of ``coreduce``, by a full scan at every step.

    Among the unmatched records with exactly one unmatched facet among the
    records, the lowest (dim, id) pairs with that facet; when there is none,
    the lowest (dim, id) unmatched record turns critical.  Returns the
    critical set and the pairs in the order they formed.
    """
    unmatched = set(records)
    critical, pairs = set(), []
    while unmatched:
        order = sorted(unmatched, key=lambda c: (records[c][0], c))
        for sigma in order:
            free = [f for f in records[sigma][1] if f in unmatched]
            if len(free) == 1:
                pairs.append((free[0], sigma))
                unmatched -= {free[0], sigma}
                break
        else:
            critical.add(order[0])
            unmatched.remove(order[0])
    return critical, pairs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coreduce_follows_the_literal_rule(p):
    # a random subset of a complex in shuffled order: some facets lie
    # outside the records, and dict order is not id order; then the shapes
    # the engine gives: the same cells by ascending id, and the subset's
    # maximal cells, of mixed dimensions, none a facet of another
    for seed in range(300):
        rng = make_rng(20_000 + 1_000 * p + seed)
        cx = random_complex(rng, p=p, n=rng.randint(2, 18))
        cells = [c for c in cx.dims if rng.random() < 0.75] or list(cx.dims)
        rng.shuffle(cells)
        top = sorted(c for c in cells if not cx.cofacets[c].keys() & set(cells))
        for block in (cells, sorted(cells), top):
            records = cell_records(cx, block)
            m = coreduce(records)
            assert (m.critical, list(m.pair_up.items())) == \
                literal_coreduce(records)
        assert m.critical == set(top)


# -- properties on random complexes -------------------------------------------

@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("p", [2, 5])
def test_traversal_matches_path_enumeration(seed, p):
    rng = make_rng(100 * p + seed)
    cx = random_complex(rng, p=p, n=rng.randint(4, 12))
    m = coreduce(cell_records(cx))
    assert is_acyclic_matching(cx, m)
    for nu in m.critical:
        assert morse_boundary(cx, m, nu) == brute_boundary(cx, m, nu)


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("p", [2, 5])
def test_morse_complex_squares_to_zero_and_betti(seed, p):
    rng = make_rng(3_000 + 100 * p + seed)
    cx = random_complex(rng, p=p, n=rng.randint(4, 12))
    m = coreduce(cell_records(cx))
    reduced = {nu: (cx.dims[nu], morse_boundary(cx, m, nu)) for nu in m.critical}
    # boundary of boundary vanishes
    for nu, (_, bnd) in reduced.items():
        acc = {}
        for tau, c in bnd.items():
            for rho, c2 in reduced[tau][1].items():
                acc[rho] = (acc.get(rho, 0) + c * c2) % p
        assert not any(acc.values())
    # the reduced complex has the homology of the full one
    full_state = {c: (cx.dims[c], cx.facets[c]) for c in cx.dims}
    assert betti_numbers(reduced, p) == betti_numbers(full_state, p)


@pytest.mark.parametrize("seed", range(10))
def test_coboundary_mirrors_boundary(seed):
    rng = make_rng(9_000 + seed)
    p = rng.choice([2, 5])
    cx = random_complex(rng, p=p, n=rng.randint(4, 12))
    m = coreduce(cell_records(cx))
    crits = sorted(m.critical)
    for nu in crits:
        bnd = morse_boundary(cx, m, nu)
        for tau in crits:
            if cx.dims[tau] == cx.dims[nu] - 1:
                cob = morse_coboundary(cx, m, tau)
                assert cob.get(nu, 0) == bnd.get(tau, 0)
