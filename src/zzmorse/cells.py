"""Cell complexes over a prime field.

A complex is a mutable Hasse diagram: cells carry a dimension, incidence
coefficients live on the (cofacet, facet) edges, and facet/cofacet adjacency
is stored mirrored.  Chains are plain dicts CellId -> nonzero coefficient in
[1, p).  All coefficients are reduced mod p at the door, ``check_boundary``.
"""

import operator

from .errors import (
    BadParameters,
    BrokenBoundary,
    InvalidOp,
    MissingFacet,
    NotRemovable,
    UnknownCell,
    ZeroInverse,
)


# Miller-Rabin to these bases has no false positive below 3.18e23 (Sorenson &
# Webster, 2015); a base that shares a factor with p also exposes it
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def check_prime(p):
    """Return p as an int; raise BadParameters unless it is a prime < 2**64."""
    try:
        q = operator.index(p)
    except TypeError:
        q = 0
    if q >= 1 << 64:
        raise BadParameters("field characteristic %r is not below 2**64" % (p,))
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2**s with d odd
    if q < 2 or q not in _BASES and not all(
            pow(b, q - 1 >> s, q) == 1
            or any(pow(b, q - 1 >> s << i, q) == q - 1 for i in range(s))
            for b in _BASES):
        raise BadParameters("field characteristic %r is not prime" % (p,))
    return q


def field_inv(a, p):
    """Multiplicative inverse of a mod p (p prime)."""
    a %= p
    if a == 0:
        raise ZeroInverse("0 has no inverse mod %d" % p)
    return pow(a, p - 2, p)


def chain_addmul(dst, src, scalar, p):
    """dst += scalar * src, in place, dropping zero entries."""
    if scalar % p == 0:
        return dst
    for cell, coeff in src.items():
        v = (dst.get(cell, 0) + scalar * coeff) % p
        if v:
            dst[cell] = v
        else:
            dst.pop(cell, None)
    return dst


def apply_boundary(chain, boundary_fn, p):
    """Boundary of a chain under a cell -> facet-chain operator."""
    out = {}
    for cell, coeff in chain.items():
        chain_addmul(out, boundary_fn(cell), coeff, p)
    return out


def check_dim(cell, dim):
    """Return dim as an int; raise InvalidOp unless it is a non-negative integer."""
    try:
        d = operator.index(dim)
    except TypeError:
        d = -1
    if d < 0:
        raise InvalidOp("cell %r has dimension %r, not a non-negative integer"
                        % (cell, dim))
    return d


def check_boundary(cell, dim, boundary, facet_lookup, p):
    """The facet chain of a cell record, checked and reduced mod p.

    The one record check of ``Complex.insert_cell`` and ``run_stream``;
    ``facet_lookup(facet)`` gives a live facet's ``(id, dim)``, else None.
    """
    try:
        chain = boundary.items()
    except AttributeError:
        raise InvalidOp("boundary %r of cell %r is not a mapping"
                        % (boundary, cell)) from None
    bd = {}
    for facet, coeff in chain:
        try:
            found = facet_lookup(facet)
        except TypeError:
            raise InvalidOp("facet id %r of cell %r is not hashable"
                            % (facet, cell)) from None
        if found is None:
            raise MissingFacet("facet %r is not alive" % (facet,))
        target, facet_dim = found
        if facet_dim != dim - 1:
            raise MissingFacet("facet %r of cell %r has dimension %d, expected %d"
                               % (facet, cell, facet_dim, dim - 1))
        try:
            coeff = operator.index(coeff) % p
        except TypeError:
            raise InvalidOp("coefficient %r on facet %r is not an integer"
                            % (coeff, facet)) from None
        if coeff:
            bd[target] = coeff
    return bd


def check_cycle(cell, bd, facets, p):
    """Raise BrokenBoundary unless ``bd``, the boundary of ``cell``, is a cycle;
    ``facets(f)`` gives a facet's chain.  O(deg^2) per cell."""
    if apply_boundary(bd, facets, p):
        raise BrokenBoundary("boundary of cell %r is not a cycle" % (cell,))


class Complex:
    """Mutable cell complex with field incidence coefficients."""

    def __init__(self, p=2):
        self.p = check_prime(p)
        self.dims = {}          # CellId -> dimension
        self.facets = {}        # CellId -> {facet CellId: coeff}
        self.cofacets = {}      # CellId -> {cofacet CellId: coeff}
        self.seq = {}           # CellId -> insertion sequence number
        self._next_id = 0
        self._next_seq = 0

    def __len__(self):
        return len(self.dims)

    def fresh_id(self):
        """Reserve and return an unused CellId."""
        cid = self._next_id
        self._next_id += 1
        return cid

    def insert_cell(self, dim, boundary):
        """Check a record and its dd = 0 as the door does; insert it, return its id."""
        cell, dims = self._next_id, self.dims
        dim = check_dim(cell, dim)
        bd = check_boundary(cell, dim, boundary,
                            lambda f: (f, dims[f]) if f in dims else None, self.p)
        check_cycle(cell, bd, self.facets.__getitem__, self.p)
        self.attach(self.fresh_id(), dim, bd)
        return cell

    def attach(self, cell, dim, bd):
        """Write a record checked at the door under an id from ``fresh_id``.

        Checks only what the door cannot: every facet is already in the
        complex (``MissingFacet``).
        """
        if bd and not bd.keys() <= self.dims.keys():
            raise MissingFacet("facet %r of cell %r is not in the complex"
                               % (next(iter(bd.keys() - self.dims.keys())), cell))
        self.dims[cell] = dim
        self.facets[cell] = bd
        self.cofacets[cell] = {}
        self.seq[cell] = self._next_seq
        self._next_seq += 1
        for facet, coeff in bd.items():
            self.cofacets[facet][cell] = coeff

    def remove_cell(self, cell):
        """Remove a maximal cell; the complex is unchanged if it raises."""
        try:
            known = cell in self.dims
        except TypeError:
            raise InvalidOp("cell id %r is not hashable" % (cell,)) from None
        if not known:
            raise UnknownCell(repr(cell))
        if self.cofacets[cell]:
            raise NotRemovable("cell %r still has cofacets" % (cell,))
        for facet in self.facets[cell]:
            del self.cofacets[facet][cell]
        del self.dims[cell]
        del self.facets[cell]
        del self.cofacets[cell]
        del self.seq[cell]



def simplex_facets(simplex):
    """Facet chain {face tuple: +-1} of a sorted vertex tuple.

    Signs follow the orientation of sorted vertex lists: omitting the j-th
    vertex contributes (-1)^j.  A vertex has no facets.
    """
    if len(simplex) == 1:
        return {}
    return {simplex[:j] + simplex[j + 1:]: (1 if j % 2 == 0 else -1)
            for j in range(len(simplex))}


def cube_facets(cube):
    """Facet chain {facet cube: +-1} with the standard alternating signs.

    A cube is a tuple of doubled coordinates: even entry 2k is the vertex
    coordinate k, odd entry 2k+1 is the unit interval [k, k+1], and the
    cube's dimension is the number of odd entries.  The k-th odd (interval)
    coordinate contributes its upper face with sign (-1)^k and its lower
    face with the opposite sign.
    """
    bd = {}
    odd_seen = 0
    for axis, v in enumerate(cube):
        if v % 2 == 0:
            continue
        sign = 1 if odd_seen % 2 == 0 else -1
        bd[cube[:axis] + (v + 1,) + cube[axis + 1:]] = sign
        bd[cube[:axis] + (v - 1,) + cube[axis + 1:]] = -sign
        odd_seen += 1
    return bd
