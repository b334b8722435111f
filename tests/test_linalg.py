"""Dense mod-p kernels against small hand cases and random consistency."""
import random

import numpy as np
import pytest

from nodal import linalg

import oracles

P = 32003


def random_matrix(rng, rows, cols, p=P):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


def test_rref_hand_case():
    A = np.array([[2, 4], [1, 3]], dtype=np.int64)
    R, piv = linalg.rref(A, 5)
    assert piv == [0, 1]
    assert R.tolist() == [[1, 0], [0, 1]]


def test_rref_dependent_rows():
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.int64)
    R, piv = linalg.rref(A, 7)
    assert piv == [0, 2]
    assert R.tolist() == [[1, 2, 0], [0, 0, 1]]


def test_rref_properties_random():
    rng = random.Random(11)
    for _ in range(25):
        A = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        R, piv = linalg.rref(A, P)
        assert R.shape[0] == len(piv)
        assert all(a < b for a, b in zip(piv, piv[1:]))
        for r, c in enumerate(piv):
            colvec = [int(R[k, c]) for k in range(R.shape[0])]
            assert colvec == [1 if k == r else 0 for k in range(R.shape[0])]
        # idempotent
        R2, piv2 = linalg.rref(R, P)
        assert piv2 == piv
        assert (R2 == R).all()
        # same row space
        assert linalg.rank(np.vstack([A, R]), P) == len(piv)


def test_rank_small_prime_wraparound():
    # entries near p: the elimination must stay exact
    p = 32009
    A = np.array([[p - 1, p - 2], [p - 3, p - 4]], dtype=np.int64)
    det = ((p - 1) * (p - 4) - (p - 2) * (p - 3)) % p
    assert (linalg.rank(A, p) == 2) == (det != 0)


def test_nullspace_random():
    rng = random.Random(22)
    for _ in range(25):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        A = random_matrix(rng, rows, cols)
        N = linalg.nullspace(A, P)
        assert N.shape[0] + linalg.rank(A, P) == cols
        if N.size:
            assert (A @ N.T % P == 0).all()
        # basis rows independent
        assert linalg.rank(N, P) == N.shape[0] if N.size else True


def test_nullspace_zero_matrix():
    A = np.zeros((2, 3), dtype=np.int64)
    N = linalg.nullspace(A, P)
    assert N.shape == (3, 3)
    assert linalg.rank(N, P) == 3


def test_reduce_rows():
    rng = random.Random(33)
    for _ in range(20):
        A = random_matrix(rng, 4, 6)
        R, piv = linalg.rref(A, P)
        B = random_matrix(rng, 3, 6)
        C = oracles.reduce_rows(R, piv, B, P)
        # pivot columns cleared
        for c in piv:
            assert (C[:, c] == 0).all()
        # reduction only subtracts rows of R
        assert linalg.rank(np.vstack([R, B]), P) == linalg.rank(
            np.vstack([R, C]), P
        )


def test_empty_matrix():
    A = np.zeros((0, 4), dtype=np.int64)
    R, piv = linalg.rref(A, P)
    assert R.shape == (0, 4)
    assert piv == []
    assert oracles.reduce_rows(R, piv, np.ones((2, 4), dtype=np.int64), P).tolist() == [
        [1, 1, 1, 1],
        [1, 1, 1, 1],
    ]


def _exact_rref_and_reduce(A, B, p):
    """Python-integer reference for rref followed by reduce_rows."""
    R = [[int(x) % p for x in row] for row in A]
    pivots, r = [], 0
    for c in range(len(R[0]) if R else 0):
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for k in range(len(R)):
            if k != r and R[k][c]:
                f = R[k][c]
                R[k] = [(x - f * y) % p for x, y in zip(R[k], R[r])]
        pivots.append(c)
        r += 1
    R = R[:r]
    out = []
    for row in B:
        row = [int(x) % p for x in row]
        for k, c in enumerate(pivots):
            f = row[c]
            row = [(x - f * y) % p for x, y in zip(row, R[k])]
        out.append(row)
    return R, pivots, out


def test_largest_prime_is_exact():
    # At p = 2^31 - 1 a dot product of three products of residues passes
    # 2^63, so reduce_rows must slice its inner dimension to stay exact.
    p = linalg.PRIME_LIMIT - 1
    rng = random.Random(41)
    for _ in range(5):
        A = random_matrix(rng, 6, 9, p)
        B = random_matrix(rng, 4, 9, p)
        R, piv = linalg.rref(A, p)
        ref_R, ref_piv, ref_C = _exact_rref_and_reduce(A, B, p)
        assert piv == ref_piv
        assert R.tolist() == ref_R
        assert oracles.reduce_rows(R, piv, B, p).tolist() == ref_C


@pytest.mark.parametrize("p", [P, linalg.PRIME_LIMIT - 1])
def test_reduce_rows_against_exact_reference(p):
    # A has rank 3 in 7 columns and its pivots skip columns 1, 3 and 4; at
    # PRIME_LIMIT - 1 reduce_rows takes one slice per pivot.
    rng = random.Random(59)
    basis = random_matrix(rng, 3, 7, p)
    basis[0, :] = [1, 5, 0, 2, 3, 0, 4]
    basis[1, :2] = 0
    basis[1, 2] = 1
    basis[2, :5] = 0
    basis[2, 5] = 1
    mix = random_matrix(rng, 5, 3, p)
    # Python-integer products: at PRIME_LIMIT - 1 they would overflow int64
    A = (mix.astype(object) @ basis.astype(object) % p).astype(np.int64)
    in_span = ((3 * basis[0].astype(object) + 7 * basis[2]) % p).astype(np.int64)
    in_span = in_span.reshape(1, -1)
    cases = [
        random_matrix(rng, 4, 7, p),
        in_span,
        np.zeros((3, 7), dtype=np.int64),
        np.zeros((0, 7), dtype=np.int64),
    ]
    R, piv = linalg.rref(A, p)
    assert piv == [0, 2, 5]
    for B in cases:
        ref_R, _, ref_C = _exact_rref_and_reduce(A, B, p)
        assert R.tolist() == ref_R
        C = oracles.reduce_rows(R, piv, B, p)
        assert C.dtype == np.int64
        assert C.shape == B.shape
        assert C.tolist() == ref_C
    assert not oracles.reduce_rows(R, piv, in_span, p).any()
