"""Reference implementations the tests trust instead of the engines.

Everything here reduces to dense linear algebra on spans of the original
generators, set arithmetic on monomial ideals, or pointwise evaluation, so a
defect in the Groebner machinery cannot vouch for itself.
"""
from __future__ import annotations

import numpy as np

from nodal import linalg
from nodal.ring import Mono, Polynomial, Ring, mono_degree, mono_divides, mono_lcm


def naive_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Schoolbook product, written independently of Polynomial.__mul__."""
    p = f.ring.p
    out: dict = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return f.ring.poly(out)


def degree_slice_matrix(gens, degree: int):
    """Coefficient rows of all monomial multiples of the gens in one degree."""
    ring = gens[0].ring
    monos = ring.monomials_of_degree(degree)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        d = g.homogeneous_degree()
        if d is None or d > degree:
            continue
        for q in ring.monomials_of_degree(degree - d):
            row = np.zeros(len(monos), dtype=np.int64)
            for m, c in naive_mul(ring.monomial(q), g).terms.items():
                row[col[m]] = c
            rows.append(row)
    if not rows:
        return np.zeros((0, len(monos)), dtype=np.int64), monos
    return np.vstack(rows), monos


def poly_vector(f: Polynomial, monos) -> np.ndarray:
    col = {m: i for i, m in enumerate(monos)}
    row = np.zeros(len(monos), dtype=np.int64)
    for m, c in f.terms.items():
        row[col[m]] = c
    return row


def member(f: Polynomial, gens) -> bool:
    """Span membership for a homogeneous polynomial in a homogeneous ideal."""
    if not f:
        return True
    ring = f.ring
    e = f.homogeneous_degree()
    mat, monos = degree_slice_matrix(gens, e)
    base = linalg.rank(mat, ring.p)
    aug = np.vstack([mat, poly_vector(f, monos)])
    return linalg.rank(aug, ring.p) == base


def quotient_dim(gens, degree: int) -> int:
    """dim of the degree slice of ring/ideal, by rank of the span matrix."""
    ring = gens[0].ring
    mat, monos = degree_slice_matrix(gens, degree)
    return len(monos) - linalg.rank(mat, ring.p)


def module_span_rank(ring: Ring, elements, twists, degree: int) -> int:
    """dim of the degree slice of the span of homogeneous module elements.

    elements: (component polynomials, module degree) pairs in the free module
    whose i-th basis element sits in degree twists[i].  Each element enters
    multiplied by every monomial that lands it in the given degree.
    """
    cols = [
        (i, m)
        for i, t in enumerate(twists)
        for m in ring.monomials_of_degree(degree - t)
    ]
    col = {c: k for k, c in enumerate(cols)}
    rows = []
    for comps, d in elements:
        for q in ring.monomials_of_degree(degree - d):
            row = np.zeros(len(cols), dtype=np.int64)
            for i, f in enumerate(comps):
                for m, c in naive_mul(ring.monomial(q), f).terms.items():
                    row[col[(i, m)]] = c
            rows.append(row)
    if not rows:
        return 0
    return linalg.rank(np.vstack(rows), ring.p)


def syzygy_dim(gens, degree: int) -> int:
    """dim of the degree slice of the syzygy module of a generator list.

    The kernel of sum_i S(-d_i) -> F in one degree: sum_i dim S_{e-d_i}
    minus the rank of the image, the span of the generators' multiples (for
    an ideal, dim I_e).  gens are homogeneous Polynomials or ModuleElements
    of one shape; a zero generator sits in degree 0.
    """
    ring = gens[0].ring
    if isinstance(gens[0], Polynomial):
        twists = (0,)
        elements = [([g], g.homogeneous_degree() or 0) for g in gens]
    else:
        twists = gens[0].shape.twists
        elements = [(z.components(), z.module_degree() or 0) for z in gens]
    source = sum(len(ring.monomials_of_degree(degree - d)) for _, d in elements)
    return source - module_span_rank(ring, elements, twists, degree)


# ---------------------------------------------------------------------------
# Monomial ideals as plain sets of exponent tuples


def mono_min_gens(monos) -> set:
    out = set()
    for m in monos:
        if any(mono_divides(o, m) and o != m for o in monos):
            continue
        out.add(m)
    return out


def mono_member(m: Mono, gens) -> bool:
    return any(mono_divides(g, m) for g in gens)


def mono_colon(gens, m: Mono) -> set:
    """Monomial ideal colon by a single monomial: divide out the gcd."""
    out = {tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens}
    return mono_min_gens(out)


def mono_sat_var(gens, i: int) -> set:
    """Saturation with respect to one variable: zero its exponent."""
    out = {g[:i] + (0,) + g[i + 1 :] for g in gens}
    return mono_min_gens(out)


def mono_intersect(a, b) -> set:
    return mono_min_gens({mono_lcm(x, y) for x in a for y in b})


def mono_sat_irrelevant(gens, nvars: int) -> set:
    """Saturation by the irrelevant ideal: intersect the per-variable ones."""
    acc = None
    for i in range(nvars):
        cur = mono_sat_var(gens, i)
        acc = cur if acc is None else mono_intersect(acc, cur)
    return mono_min_gens(acc)


def mono_quotient_dim(gens, nvars: int, degree: int) -> int:
    """Count standard monomials of one degree under a monomial ideal."""
    from itertools import product

    count = 0
    for m in _compositions(degree, nvars):
        if not mono_member(m, gens):
            count += 1
    return count


def _compositions(d: int, n: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _compositions(d - first, n - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Point evaluation


def eval_mono(m: Mono, point, p: int) -> int:
    v = 1
    for x, e in zip(point, m):
        if e:
            v = v * pow(x, e, p) % p
    return v


def evaluation_matrix(ring: Ring, points, degree: int) -> np.ndarray:
    """Rows of monomial values, one row per point."""
    monos = ring.monomials_of_degree(degree)
    mat = np.zeros((len(points), len(monos)), dtype=np.int64)
    for r, pt in enumerate(points):
        for c, m in enumerate(monos):
            mat[r, c] = eval_mono(m, pt, ring.p)
    return mat


def points_quotient_dim(ring: Ring, points, degree: int) -> int:
    """Hilbert function of the reduced point set at one degree."""
    return linalg.rank(evaluation_matrix(ring, points, degree), ring.p)


def double_vanishing_dim(ring: Ring, points, degree: int) -> int:
    """dim of the degree slice of forms vanishing doubly at every point.

    Conditions per point: the value and every first partial vanish.  The
    value row is redundant when the degree is invertible mod p (the Euler
    relation), kept anyway for clarity.
    """
    monos = ring.monomials_of_degree(degree)
    rows = []
    for pt in points:
        rows.append([eval_mono(m, pt, ring.p) for m in monos])
        for i in range(ring.nvars):
            row = []
            for m in monos:
                e = m[i]
                if not e:
                    row.append(0)
                    continue
                dm = m[:i] + (e - 1,) + m[i + 1 :]
                row.append(e * eval_mono(dm, pt, ring.p) % ring.p)
            rows.append(row)
    mat = np.array(rows, dtype=np.int64)
    return len(monos) - linalg.rank(mat, ring.p)


def random_projective_point(ring: Ring, rng):
    while True:
        pt = tuple(rng.randrange(ring.p) for _ in range(ring.nvars))
        if any(pt):
            return pt
