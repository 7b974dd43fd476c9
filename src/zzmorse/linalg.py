"""Dense linear algebra over Z/p on int64 numpy arrays.

Row reduction, rank, kernel bases, span solves and boundary matrices for
the oracle, exact for a prime up to ``MAX_PRIME``.  A snapshot is a dict
``cell -> (dim, {facet: coeff})``, as in ``oracle``.
"""

import numpy as np

from .cells import field_inv

# the largest prime p whose residue products fit int64: (p - 1)**2 < 2**63
MAX_PRIME = 3_037_000_493


def rref(mat, p):
    """Row-reduce a copy of ``mat`` over Z/p; return (rref, pivot columns)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * field_inv(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_mod(mat, p):
    return len(rref(mat, p)[1])


def nullspace(mat, p):
    """Columns spanning the kernel of ``mat`` over Z/p."""
    red, pivots = rref(mat, p)
    cols = mat.shape[1]
    free = [j for j in range(cols) if j not in set(pivots)]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = (-red[i, j]) % p
    return basis


def solve_in_span(a, b, p):
    """Solve a @ x = b column-wise; the columns of b must lie in span(a)."""
    na = a.shape[1]
    red, pivots = rref(np.hstack([a, b]), p)
    if any(c >= na for c in pivots):
        raise ArithmeticError("right-hand side not in span")
    x = np.zeros((na, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, na:]
    return x


def boundary_matrix(state, cells_low, cells_high):
    """Matrix of the boundary from ``cells_high`` to ``cells_low`` in a snapshot."""
    index = {c: i for i, c in enumerate(cells_low)}
    mat = np.zeros((len(cells_low), len(cells_high)), dtype=np.int64)
    for j, c in enumerate(cells_high):
        for facet, coeff in state[c][1].items():
            mat[index[facet], j] = coeff
    return mat
