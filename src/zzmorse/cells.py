"""Cell complexes over a prime field, and the door every stream passes.

A complex is a mutable Hasse diagram: cells carry a dimension, incidence
coefficients live on the (cofacet, facet) edges, and facet/cofacet adjacency
is stored mirrored.  Chains are plain dicts CellId -> nonzero coefficient in
[1, p).  All coefficients are reduced mod p at the door, ``check_boundary``.

The door, which ``kernel.run_stream`` and the reference ``oracle`` both
read their streams through, checks a block stream in the caller's ids:
``read_stream`` the stream, ``read_block`` a block's shape,
``translate_forward`` an insertion block's records and
``translate_backward`` a removal block's ids.
"""

import operator
from collections import ChainMap

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

    The record check of ``translate_forward``; ``facet_lookup(facet)``
    gives a live facet's ``(id, dim)``, else None.
    """
    try:
        chain = boundary.items()
    except AttributeError:
        raise InvalidOp("boundary %r of cell %r is not a mapping"
                        % (boundary, cell)) from None
    below = dim - 1
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
        if facet_dim != below:
            raise MissingFacet("facet %r of cell %r has dimension %d, expected %d"
                               % (facet, cell, facet_dim, below))
        if type(coeff) is not int:  # a plain int needs no check
            try:
                coeff = operator.index(coeff)
            except TypeError:
                raise InvalidOp("coefficient %r on facet %r is not an integer"
                                % (coeff, facet)) from None
        coeff %= p
        if coeff:
            bd[target] = coeff
    return bd


def check_cycle(cell, bd, facets, p):
    """Raise BrokenBoundary unless ``bd``, the boundary of ``cell``, is a cycle;
    ``facets(f)`` gives a facet's chain.  O(deg^2) per cell."""
    if apply_boundary(bd, facets, p):
        raise BrokenBoundary("boundary of cell %r is not a cycle" % (cell,))


def read_stream(blocks):
    """An iterator over a stream's blocks; InvalidOp unless it is iterable."""
    try:
        return iter(blocks)
    except TypeError:
        raise InvalidOp("stream %r is not iterable" % (blocks,)) from None


def read_block(block, index):
    """The ``(direction, cells)`` of the ``index``-th block, cells as a list.

    Raises ``InvalidOp`` unless the block is a pair whose cells are an
    iterable other than a string and whose direction is "F" or "B".
    """
    try:
        direction, cells = block
        if type(cells) is not list:  # a list is read in place, not copied
            if isinstance(cells, (str, bytes, bytearray)):  # not one id each
                raise InvalidOp("block %d gives its cells as a string %r"
                                % (index, cells))
            cells = list(cells)
    except (TypeError, ValueError):
        raise InvalidOp("block %d is not (direction, cells)"
                        % (index,)) from None
    if direction != "F" and direction != "B":
        raise InvalidOp("unknown block direction %r" % (direction,))
    return direction, cells


def caller_id(alive, cell):
    """The external id of a live internal id; a scan, so only for errors."""
    return next(ext for ext, (c, _) in alive.items() if c == cell)


def translate_forward(cells, cx, alive, validate):
    """Map one insertion block to internal ids; returns ``(records, inner)``.

    ``alive`` maps each live external id to ``(internal id, dim)``; internal
    ids come from ``cx.fresh_id``.  The block's cells join ``alive`` first,
    so a facet may also be another cell of the block; then each record is
    checked: ``check_boundary``, and ``check_cycle`` if ``validate``.
    ``records`` maps each new internal id to ``(dim, boundary)``, ready for
    ``cx.attach``; ``inner`` tells whether any facet is a cell of the
    block, that is, an id at or above its first fresh id.
    """
    # Fresh int ids are not a leftover: keyed by the caller's ids the engine
    # gives byte-identical output, but a probe ran rips-150 about 14% slower,
    # since every dict operation then hashes a simplex tuple.
    new = []
    fresh_id, lookup, p = cx.fresh_id, alive.get, cx.p
    for record in cells:
        try:
            ext, dim, boundary = record
        except (TypeError, ValueError):
            raise InvalidOp("forward record %r is not (cell, dim, boundary)"
                            % (record,)) from None
        try:
            known = ext in alive
        except TypeError:
            raise InvalidOp("cell id %r is not hashable" % (ext,)) from None
        if known:
            raise InvalidOp("cell id %r is already alive" % (ext,))
        if type(dim) is not int or dim < 0:  # a plain int needs no check
            dim = check_dim(ext, dim)
        entry = alive[ext] = (fresh_id(), dim)
        new.append((ext, boundary, entry))
    records = {}
    inner = False
    first = new[0][2][0] if new else None  # the block's first fresh id
    for ext, boundary, (cell, dim) in new:
        if type(boundary) is dict and not boundary:  # needs no check
            records[cell] = (dim, {})
            continue
        bd = check_boundary(ext, dim, boundary, lookup, p)
        records[cell] = (dim, bd)
        if bd and not inner:
            inner = max(bd) >= first
    if validate:
        chains = ChainMap({c: bd for c, (_, bd) in records.items()}, cx.facets)
        for ext, _, (cell, _) in new:
            check_cycle(ext, records[cell][1], chains.__getitem__, p)
    return records, inner


def translate_backward(cells, cx, alive):
    """Take a removal block's ids out of ``alive``; return the internal ids.
    A cofacet left behind raises ``NotRemovable`` in the caller's ids."""
    out = set()
    for ext in cells:
        try:
            cell = alive[ext][0]
        except KeyError:
            raise UnknownCell("cell id %r is not alive" % (ext,)) from None
        except TypeError:
            raise InvalidOp("cell id %r is not hashable" % (ext,)) from None
        if cell in out:
            raise InvalidOp("cell id %r removed twice in one block" % (ext,))
        out.add(cell)
    for ext in cells:
        for cof in cx.cofacets[alive.pop(ext)[0]]:
            if cof not in out:
                raise NotRemovable("cell %r has a cofacet %r outside the block"
                                   % (ext, caller_id(alive, cof)))
    return out


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

    def fresh_id(self):
        """Reserve and return an unused CellId."""
        cid = self._next_id
        self._next_id += 1
        return cid

    def attach(self, cell, dim, bd):
        """Write a record checked at the door under an id from ``fresh_id``.

        Checks only what the door cannot: every facet is already in the
        complex (``MissingFacet``).  The back-edge writes make the check: a
        facet with no cofacet entry refuses the record, after the edges
        already written are taken back, so a refusal leaves the complex
        unchanged.
        """
        cofacets = self.cofacets
        try:
            for facet, coeff in bd.items():
                cofacets[facet][cell] = coeff
        except KeyError:
            for written in bd:
                if written == facet:
                    break
                del cofacets[written][cell]
            raise MissingFacet("facet %r of cell %r is not in the complex"
                               % (next(iter(bd.keys() - cofacets.keys())),
                                  cell)) from None
        cofacets[cell] = {}
        self.dims[cell] = dim
        self.facets[cell] = bd
        self.seq[cell] = self._next_seq
        self._next_seq += 1

    def remove_cell(self, cell):
        """Remove a maximal cell and return its dimension; a refusal
        (``UnknownCell``, or ``NotRemovable`` while it has cofacets) leaves
        the complex unchanged."""
        cofacets = self.cofacets
        up = cofacets.get(cell)
        if up is None:
            raise UnknownCell(repr(cell))
        if up:
            raise NotRemovable("cell %r still has cofacets" % (cell,))
        for facet in self.facets.pop(cell):
            del cofacets[facet][cell]
        del cofacets[cell]
        del self.seq[cell]
        return self.dims.pop(cell)


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
