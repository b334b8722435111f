"""Reference implementations the tests trust instead of the engines.

Nearly everything here reduces to dense linear algebra on spans of the
original generators, set arithmetic on monomial ideals, or pointwise
evaluation, so a defect in the Groebner machinery cannot vouch for itself.
The one piece of Groebner machinery is `buchberger`, a reference basis by
Buchberger's pair loop on term dicts.  It shares the pair criteria
(`_new_pairs`), division and interreduction with `nodal.groebner`, but none
of the Macaulay engine: no packed terms, no symbolic preprocessing, no
matrices.  `quotient_by_loop` is a reference route, not an independent
oracle: a different module construction on the same engine.
`projection_certificate` is the reducedness certificate by projection in
degree delta, the route `ideals.points_are_reduced` took before it read
multiplication matrices; it shares the degree slice and the gcd helpers.
"""
from __future__ import annotations

import heapq
import random
from itertools import combinations
from math import comb

import numpy as np

from nodal import linalg
from nodal.errors import DegreeCapExceeded
from nodal.groebner import (
    DEFAULT_DEGREE_CAP,
    FreeModuleShape,
    GroebnerBasis,
    ModuleElement,
    PositionOverTerm,
    RingOrderAdapter,
    _interreduce,
    _make_gel,
    _new_pairs,
    _normal_form_dict,
    groebner_basis,
)
from nodal.ideals import (
    Ideal,
    ReducednessReport,
    _degree_slice,
    _uni_deriv,
    _uni_gcd,
    _uni_trim,
    codimension,
    intersect,
    scheme_length,
)
from nodal.ring import (
    Mono,
    Polynomial,
    Ring,
    check_degree_cap,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

_INT64_SPAN = 1 << 63


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


def conic_rank(f: Polynomial) -> int:
    """Rank of twice the symmetric matrix of a quadratic form in 3 variables."""
    m = np.zeros((3, 3), dtype=np.int64)
    for mono, c in f.terms.items():
        i, j = [v for v in range(3) for _ in range(mono[v])]
        m[i, j] += c
        m[j, i] += c
    return linalg.rank(m, f.ring.p)


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


def reduce_rows(R, pivots, B, p: int):
    """Reduce each row of B modulo the span of the rref rows R.

    B - B[:, P] @ R has inner dimension k, the rank of R.  R is reduced:
    column P[j] of R is the j-th unit vector, so column P[j] of the result is
    B[:, P[j]] - B[:, P[j]] = 0 exactly.  Only the non-pivot columns are
    therefore formed, B[:, F] - B[:, P] @ R[:, F], and the pivot columns are
    set to zero.  A dot product of length k reaches k*(p-1)^2, so the product
    is taken in slices of at most (2^63 - p) // (p-1)^2 pivots.  Each slice
    sum stays below 2^63 - p, and because R is zero in every other pivot
    column, subtracting one slice leaves the pivot entries B[:, P] that the
    next slice multiplies unchanged, so the slices can be subtracted one
    after another with the original B[:, P].  At p = 32003 one slice holds
    about 9*10^9 pivots, so in practice there is a single product.
    """
    B = np.array(B, dtype=np.int64) % p
    if len(pivots) and B.size:
        free = np.ones(B.shape[1], dtype=bool)
        free[pivots] = False
        coeffs = B[:, pivots]
        rest = B[:, free]
        R_rest = R[:, free]
        step = (_INT64_SPAN - p) // (p - 1) ** 2
        for s in range(0, len(pivots), step):
            rest = (rest - coeffs[:, s : s + step] @ R_rest[s : s + step]) % p
        B[:, pivots] = 0
        B[:, free] = rest
    return B


def koszul_betti(gens, jmax: int) -> dict:
    """Graded Betti numbers of S/I up to degree jmax, by Koszul homology.

    beta_{i,j}(S/I) = dim H_i(K(x_0, ..., x_{n-1}) tensor S/I)_j (D. Eisenbud,
    The Geometry of Syzygies, GTM 229): K_i is the exterior power
    wedge^i S^n (-i), so its degree-j piece over S/I is C(n, i) copies of
    (S/I)_{j-i}.  The homology is that dimension minus the ranks of the two
    Koszul maps at it.  Each map is written on the quotient one degree up:
    one `rref` of the span matrix of I_{a+1} (`degree_slice_matrix`) per
    degree, each target summand's block of the map reduced modulo it, and
    the non-pivot columns kept, which index a basis of (S/I)_{a+1}.  gens
    are homogeneous Polynomials; no Groebner basis is involved.  Returns the
    nonzero numbers as {(i, j): beta}.
    """
    ring = gens[0].ring
    n, p = ring.nvars, ring.p
    slices = {}

    def ideal_slice(d):
        """(rref rows of I_d, their pivot columns, the monomials of degree d)"""
        if d not in slices:
            mat, monos = degree_slice_matrix(gens, d)
            slices[d] = (*linalg.rref(mat, p), monos)
        return slices[d]

    def quotient_dim_at(d):
        if d < 0:
            return 0
        _, piv, monos = ideal_slice(d)
        return len(monos) - len(piv)

    def koszul_rank(i, j):
        """Rank of d_i: K_i -> K_{i-1} over S/I in degree j."""
        if i < 1 or i > n or j - i < 0:
            return 0
        a = j - i  # source monomial degree; the target sits one degree up
        R, piv, tmonos = ideal_slice(a + 1)
        faces = {f: k for k, f in enumerate(combinations(range(n), i - 1))}
        col = {m: k for k, m in enumerate(tmonos)}
        width = len(tmonos)
        rows = []
        for subset in combinations(range(n), i):
            for m in ring.monomials_of_degree(a):
                row = np.zeros(len(faces) * width, dtype=np.int64)
                for pos, v in enumerate(subset):
                    face = subset[:pos] + subset[pos + 1 :]
                    xm = m[:v] + (m[v] + 1,) + m[v + 1 :]
                    row[faces[face] * width + col[xm]] = 1 if pos % 2 == 0 else p - 1
                rows.append(row)
        rows = np.vstack(rows)
        # each target summand modulo I_{a+1}, on the quotient's basis columns
        free = np.ones(width, dtype=bool)
        free[piv] = False
        blocks = [
            reduce_rows(R, piv, rows[:, k * width : (k + 1) * width], p)[:, free]
            for k in range(len(faces))
        ]
        return linalg.rank(np.hstack(blocks), p)

    out = {}
    for j in range(jmax + 1):
        for i in range(n + 1):
            beta = (
                comb(n, i) * quotient_dim_at(j - i)
                - koszul_rank(i, j)
                - koszul_rank(i + 1, j)
            )
            if beta:
                out[(i, j)] = beta
    return out


# ---------------------------------------------------------------------------
# Groebner bases by Buchberger's algorithm


def _shift_dict(d: dict, q: Mono) -> dict:
    return {(c, mono_mul(m, q)): v for (c, m), v in d.items()}


def _sub_into(acc: dict, d: dict, p: int):
    for t, v in d.items():
        nv = (acc.get(t, 0) - v) % p
        if nv:
            acc[t] = nv
        else:
            acc.pop(t, None)


def buchberger(gens, order=None, cap: int = DEFAULT_DEGREE_CAP) -> GroebnerBasis:
    """Reduced basis by Buchberger's algorithm, for ideals and submodules.

    Homogeneous or not, under any order the ring's orders or
    `PositionOverTerm` give.  Zero generators are skipped; the run basis is
    interreduced at the end.  Pairs are queued by the degree of their lcm
    and pruned by the Gebauer-Moeller criteria and criterion B.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    module = isinstance(gens[0], ModuleElement)
    if module:
        shape = gens[0].shape
        if order is None:
            order = PositionOverTerm(ring.grevlex, shape.rank)
        keyf = order.key
        dicts = [dict(z.terms) for z in gens]
    else:
        if order is None:
            order = ring.grevlex
        shape = FreeModuleShape.plain(1)
        keyf = RingOrderAdapter(order).key
        dicts = [{(0, m): c for m, c in f.terms.items()} for f in gens]
    check_degree_cap(cap)
    p = ring.p
    gels = []
    tops: list[int] = []  # largest total degree of a term, per element
    by_comp: dict = {}
    alive: dict[tuple[int, int], Mono] = {}
    heap: list[tuple[int, int, int]] = []

    def insert(d):
        g = _make_gel(ring, d, keyf)
        t = len(gels)
        new = _new_pairs([h.lead for h in gels], g.lead, not module)
        # Criterion B: prune queued pairs strictly covered by the new lead.
        lm = g.lead[1]
        for (i, j), lcm in list(alive.items()):
            if gels[i].lead[0] != g.lead[0]:
                continue
            if not mono_divides(lm, lcm):
                continue
            if mono_lcm(gels[i].lead[1], lm) == lcm:
                continue
            if mono_lcm(gels[j].lead[1], lm) == lcm:
                continue
            del alive[(i, j)]
        for i, lcm in new:
            alive[(i, t)] = lcm
            heapq.heappush(heap, (mono_degree(lcm), i, t))
        gels.append(g)
        tops.append(max(mono_degree(m) for _, m in g.full))
        by_comp.setdefault(g.lead[0], []).append(g)

    for d in dicts:
        if d:
            insert(d)

    while heap:
        _, i, j = heapq.heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        gi, gj = gels[i], gels[j]
        lcm = mono_lcm(gi.lead[1], gj.lead[1])
        qi = mono_div(lcm, gi.lead[1])
        qj = mono_div(lcm, gj.lead[1])
        # The lcm's degree under a degree-compatible order; under lex a tail
        # can outgrow its lead, and its shift must stay inside the cap too.
        deg = max(tops[i] + mono_degree(qi), tops[j] + mono_degree(qj))
        if deg > cap:
            raise DegreeCapExceeded(
                f"S-pair degree {deg} passed the cap {cap}", cap=cap
            )
        s = _shift_dict(gi.full, qi)
        _sub_into(s, _shift_dict(gj.full, qj), p)
        rem = _normal_form_dict(s, by_comp, keyf, p, cap)
        if rem:
            insert(rem)
    gels = _interreduce(ring, gels, keyf, cap)
    if module:
        elements = tuple(ModuleElement(ring, shape, g.full) for g in gels)
    else:
        elements = tuple(
            Polynomial(ring, {m: c for (_, m), c in g.full.items()}) for g in gels
        )
    return GroebnerBasis(ring, shape, order, elements)


# ---------------------------------------------------------------------------
# Minimal generators by a dense elimination of their own


def module_monomials(ring: Ring, shape: FreeModuleShape, degree: int):
    """Module monomials of the given degree: component asc, monomial desc."""
    out = []
    for comp in range(shape.rank):
        d = degree - shape.twists[comp]
        if d < 0:
            continue
        out.extend((comp, m) for m in ring.monomials_of_degree(d))
    return out


def graded_piece_rows(ring, shape, elements, degree):
    """Rows spanning the degree-d slice of the span of the elements.

    elements: iterable of (terms dict, module degree) pairs.  Returns
    (matrix, columns) with columns the module monomials indexing the matrix.
    """
    cols = module_monomials(ring, shape, degree)
    col = {t: i for i, t in enumerate(cols)}
    rows = []
    for terms, d in elements:
        q = degree - d
        if q < 0:
            continue
        for g in ring.monomials_of_degree(q):
            row = np.zeros(len(cols), dtype=np.int64)
            for (tc, tm), c in terms.items():
                row[col[(tc, mono_mul(tm, g))]] = c
            rows.append(row)
    if rows:
        mat = np.vstack(rows)
    else:
        mat = np.zeros((0, len(cols)), dtype=np.int64)
    return mat, cols


def minimal_module_generators(elements):
    """Minimal generating subset of a list of homogeneous elements.

    Degreewise: an element is redundant iff it lies in the span of the
    monomial multiples of the lower-degree survivors and of the same-degree
    survivors before it.  So the survivors of one degree are the pivot
    columns of one `rref`: the transposed candidates, reduced modulo the
    lower-degree span.  Input can be Polynomials (rank 1) or ModuleElements
    over one shape.
    """
    elements = [z for z in elements if z]
    if not elements:
        return []
    ring = elements[0].ring
    if isinstance(elements[0], Polynomial):
        shape = FreeModuleShape.plain(1)
        triples = [
            ({(0, m): c for m, c in f.terms.items()}, f.homogeneous_degree(), f)
            for f in elements
        ]
    else:
        shape = elements[0].shape
        triples = [(dict(z.terms), z.module_degree(), z) for z in elements]
    p = ring.p
    triples.sort(key=lambda t: t[1])
    kept = []
    for deg in sorted({d for _, d, _ in triples}):
        cands = [t for t in triples if t[1] == deg]
        # each candidate adds one row, after the lower-degree multiples
        mat, _ = graded_piece_rows(ring, shape, [t[:2] for t in kept + cands], deg)
        R, piv = linalg.rref(mat[: -len(cands)], p)
        V = reduce_rows(R, piv, mat[-len(cands) :], p)
        kept.extend(cands[i] for i in linalg.rref(V.T, p)[1])
    return [obj for _, _, obj in kept]


def quotient_by_loop(a, b):
    """Colon a : b as the intersection of the colons by each generator of b,
    2k - 1 module bases for k generators where `ideals.quotient` takes one.

    The colon by one polynomial g is a rank-2 elimination: the submodule
    generated by (g, 1) and (f, 0) for f in a meets the second coordinate
    axis exactly in a : g.  The second component is twisted by deg g when g
    is homogeneous, so homogeneous input stays homogeneous.
    """
    ring = a.ring
    gens = [b] if isinstance(b, Polynomial) else list(b.gens)
    order = PositionOverTerm(ring.grevlex, 2)
    zero, one = ring.zero(), ring.one()
    acc = None
    for g in gens:
        twist = g.homogeneous_degree() if g.is_homogeneous() else 0
        shape = FreeModuleShape(2, (0, twist))
        rows = [ModuleElement.from_polynomials(shape, [g, one])]
        rows += [ModuleElement.from_polynomials(shape, [f, zero]) for f in a.gens]
        gb = groebner_basis(rows, order)
        cur = Ideal(ring, [z.component(1) for z in gb.elements if not z.component(0)])
        acc = cur if acc is None else intersect(acc, cur)
    return acc


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


def codimension_by_cover(gens, nvars: int) -> int:
    """Height of a monomial ideal: its minimal primes are generated by
    variables, so it is the fewest variables meeting every generator.  0 for
    no generators and nvars + 1 for the unit ideal, as `ideals.codimension`."""
    if any(not any(m) for m in gens):
        return nvars + 1
    for size in range(nvars + 1):
        for subset in combinations(range(nvars), size):
            if all(any(m[i] for i in subset) for m in gens):
                return size
    raise AssertionError("no variable cover found")


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


# ---------------------------------------------------------------------------
# Reducedness certificate by projection in degree delta


def projection_rows(lin, delta: int, p: int, monos):
    """Coefficient rows of l1^k * l2^(delta-k), k = 0..delta, over `monos`.

    lin is the 2x3 int64 matrix of the coefficients, residues mod p, of x0,
    x1, x2 in l1 and l2; monos lists the degree-delta monomials of a
    3-variable ring.  A[k, a, b] holds the coefficient of
    x0^a * x1^b * x2^(d-a-b) in l1^k * l2^(d-k).
    Going from degree d to d+1, row 0 gains a factor l2 and row k the factor
    l1 times row k-1; multiplying by a linear form is three shifted adds over
    the whole stack.  Each product of two residues is below p^2 < 2^62 and is
    reduced before the adds, so a sum of three stays below 3p and int64 is
    exact for every p below linalg.PRIME_LIMIT.
    """
    A = np.ones((1, 1, 1), dtype=np.int64)
    for d in range(delta):
        src = np.concatenate([A[:1], A])
        coef = np.concatenate([lin[1:], np.broadcast_to(lin[0], (d + 1, 3))])
        nxt = np.zeros((d + 2, d + 2, d + 2), dtype=np.int64)
        nxt[:, 1:, :-1] += coef[:, 0, None, None] * src % p
        nxt[:, :-1, 1:] += coef[:, 1, None, None] * src % p
        nxt[:, :-1, :-1] += coef[:, 2, None, None] * src % p
        A = nxt % p
    a_idx = [m[0] for m in monos]
    b_idx = [m[1] for m in monos]
    return A[:, a_idx, b_idx]


def binary_form_squarefree(coeffs, delta: int, p: int) -> bool:
    """Squarefree test for sum(coeffs[a] * u^a * v^(delta-a))."""
    c = _uni_trim([int(x) % p for x in coeffs])
    if not c:
        raise AssertionError("zero binary form")
    if delta - (len(c) - 1) >= 2:
        return False  # the v-root repeats
    d = _uni_deriv(c, p)
    if not d:
        return len(c) == 1  # constant in u: fine only when delta contributes <= 1
    return len(_uni_gcd(c, d, p)) == 1


def projection_certificate(a: Ideal, seed: int = 0, attempts: int = 8) -> ReducednessReport:
    """Reducedness of a saturated plane point scheme by projection.

    With W the span of the products l1^k * l2^(delta-k) of two random linear
    forms, the slice a_delta meets W in dimension one exactly when the
    projection from the center l1 = l2 = 0 is injective on the scheme, and the
    binary form in the intersection is the image cycle; a squarefree image
    certifies delta distinct reduced points.  The rows of W are reduced
    modulo the slice by forward substitution (`linalg.reduce_mod_echelon`)
    and the intersection is their nullspace.  Draws the same linear forms
    from random.Random(seed), and counts attempts the same way, as
    `ideals.points_are_reduced`.
    """
    ring = a.ring
    if ring.nvars != 3:
        raise ValueError("the projection certificate works in the plane")
    if codimension(a) < 2:
        raise ValueError("not a finite scheme")
    delta = scheme_length(a)
    if delta == 0:
        return ReducednessReport(True, 0, 0, 0)
    rng = random.Random(seed)
    cols, vals = _degree_slice(a.gb(), delta)
    monos = ring.monomials_of_degree(delta)
    used = 0
    for _ in range(attempts):
        used += 1
        l1 = ring.random_linear(rng)
        l2 = ring.random_linear(rng)
        lin = linear_coefficients(l1, l2)
        if linalg.rank(lin, ring.p) < 2:
            continue
        wrows = projection_rows(lin, delta, ring.p, monos)
        reduced_w = linalg.reduce_mod_echelon(cols, vals, wrows, ring.p)
        lam = linalg.nullspace(reduced_w.T, ring.p)
        if lam.shape[0] == 0:
            raise AssertionError("no cycle form found in the slice")
        if lam.shape[0] > 1:
            # two independent forms through the scheme: fat structure or a
            # degenerate center; try another center
            continue
        if binary_form_squarefree(lam[0], delta, ring.p):
            return ReducednessReport(True, delta, delta, used)
    return ReducednessReport(False, delta, None, used)


def linear_coefficients(*forms) -> np.ndarray:
    """The int64 matrix of the coefficients of x0, x1, x2 in linear forms."""
    lin = np.zeros((len(forms), 3), dtype=np.int64)
    for j, f in enumerate(forms):
        for m, c in f.terms.items():
            lin[j, m.index(1)] = c
    return lin
