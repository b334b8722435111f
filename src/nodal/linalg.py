"""Dense linear algebra over F_p on numpy int64 arrays.

Entries live in [0, p) and every prime is below PRIME_LIMIT = 2^31, which
keeps int64 arithmetic with a final reduction exact: an elimination step in
`rref` or `reduce_mod_echelon` forms a - b*c with a, b, c in [0, p), so its
values lie in (-(p-1)^2, p), inside (-2^62, 2^31), and is reduced mod p at
once.  `ring.Ring` refuses larger primes, so no caller reaches these
routines with a modulus they would compute wrongly.
"""
from __future__ import annotations

import numpy as np

PRIME_LIMIT = 1 << 31


def rref(A, p: int):
    """Reduced row echelon form mod p.

    Returns (R, pivots): R has unit pivots with zeros above and below, rows of
    zeros dropped; pivots lists the pivot column of each row of R.  Forward
    elimination only touches rows below the pivot and columns from the pivot
    on; clearing above waits for a back-substitution pass over the surviving
    rows, which is cheaper when the matrix is much taller than its rank.
    """
    R = np.array(A, dtype=np.int64) % p
    if R.ndim != 2:
        raise ValueError("need a 2d array")
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), -1, p)
        R[r, c:] = R[r, c:] * inv % p
        sel = r + 1 + np.nonzero(R[r + 1 :, c])[0]
        if sel.size:
            R[sel, c:] = (R[sel, c:] - np.outer(R[sel, c], R[r, c:])) % p
        pivots.append(c)
        r += 1
    R = R[:r]
    for k in range(r - 1, 0, -1):
        c = pivots[k]
        sel = np.nonzero(R[:k, c])[0]
        if sel.size:
            R[sel, c:] = (R[sel, c:] - np.outer(R[sel, c], R[k, c:])) % p
    return R, pivots


def rank(A, p: int) -> int:
    return len(rref(A, p)[1])


def reduce_mod_echelon(cols, vals, W, p: int):
    """Reduce the rows of W modulo the span of sparse echelon rows.

    Row i of the echelon rows has its terms in columns cols[i] with values
    vals[i], its unit pivot first, padded with the column W.shape[1] (a sink)
    and value 0; the pivots cols[:, 0] increase.  Returns the unique rows of
    W + span that vanish in every pivot column, the same as reducing W
    against the `rref` of the same rows.  Forward substitution on the
    transpose: the pivots are taken in increasing column order, and each
    clears its column by a rank-1 update of the later columns, so a pivot
    column is final when reached.  W holds residues and so does every update:
    with b, c, v in [0, p), b - v*c lies in (-(p-1)^2, p), inside int64 for
    every p below PRIME_LIMIT, and each step reduces mod p again.
    """
    WT = np.zeros((W.shape[1] + 1, W.shape[0]), dtype=np.int64)  # + sink row
    WT[:-1] = W.T
    for c, rest, coeffs in zip(cols[:, 0].tolist(), cols[:, 1:], vals[:, 1:]):
        WT[rest] = (WT[rest] - coeffs[:, None] * WT[c]) % p
        WT[c] = 0
    return WT[:-1].T


def nullspace(A, p: int):
    """Basis of {v : A v = 0}, one vector per row of the result."""
    A = np.asarray(A, dtype=np.int64)
    cols = A.shape[1]
    R, pivots = rref(A, p)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            v = int(R[r, c])
            if v:
                basis[k, pc] = p - v
    return basis
