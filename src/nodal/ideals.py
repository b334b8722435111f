"""Ideal operations: sums, products, intersections and colons (one
elimination each, `groebner._eliminate`), saturation, codimension, Hilbert
series of monomial ideals, and the reducedness certificate for point schemes.

Saturation by the irrelevant ideal m is the workhorse of the conductor
pipelines, so it avoids colon iterations.  In a graded reverse lexicographic
order whose cheapest variable is x, a homogeneous element is divisible by x
exactly when its lead is, so dividing x out of the reduced basis of I gives a
Groebner basis of J = I : x^∞ in the same order, whose leads are the old
leads with their x-powers divided out (Bayer-Stillman).  J is saturated and
contains the saturation of I, and it equals it exactly when S/J and S/I have
the same Hilbert polynomial, which `hilbert_numerator` reads off those two
lead sets.  That holds unless an associated point of the saturation lies on
x = 0, so one variable usually settles it; only when every variable fails is
the saturation the intersection of the single-variable colons.
"""
from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations_with_replacement
from operator import le

import numpy as np

from . import linalg
from .errors import CharacteristicError, InvariantViolation
from .groebner import (
    FreeModuleShape,
    GroebnerBasis,
    ModuleElement,
    _eliminate,
    _store_basis,
    groebner_basis,
    normal_form,
)
from .ring import Grevlex, Polynomial, Ring, grevlex_monomials, mono_mul


class Ideal:
    """Ideal of a ring, given by generators.

    Its reduced bases live in the ring's basis cache (see
    groebner.groebner_basis), so ideals named by the same generators share
    them.  The object also keeps each basis it has looked up, per order name,
    so later calls skip building the cache key and find the basis's leads and
    Hilbert numerator already computed.  Every basis obeys the ring's degree
    cap (`Ring.cap`).  The ring's cache never
    points at an Ideal, so this makes no reference cycle.
    """

    __slots__ = ("ring", "gens", "_bases")

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        self._bases = {}
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator over a different ring")

    @classmethod
    def parse(cls, ring: Ring, texts) -> "Ideal":
        return cls(ring, [ring.parse(t) for t in texts])

    def gb(self, order=None) -> GroebnerBasis:
        order = order if order is not None else self.ring.grevlex
        gb = self._bases.get(order.name)
        if gb is None:
            if self.gens:
                gb = groebner_basis(self.gens, order)
            else:
                gb = GroebnerBasis(self.ring, None, order, (), ())
            self._bases[order.name] = gb
        return gb

    def contains(self, f: Polynomial) -> bool:
        if not f:
            return True
        if not self.gens:
            return False
        return not normal_form(f, self.gb())

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def same_ideal(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            return False
        return list(self.gb().elements) == list(other.gb().elements)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        gb = self.gb()
        return len(gb) == 1 and gb.elements[0] == self.ring.one()

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.gens)

    def minimal_gens(self) -> list[Polynomial]:
        """Minimal generators by degree: the elements of the reduced grevlex
        basis that the Macaulay engine marked (GroebnerBasis.minimal)."""
        if not self.is_homogeneous():
            raise ValueError("minimal generators need homogeneous input")
        return self.gb().minimal_elements()

    def graded_dim(self, degree: int) -> int:
        """dim of the degree slice of the ideal itself."""
        total = len(self.ring.monomials_of_degree(degree))
        return total - self.quotient_dim(degree)

    def quotient_dim(self, degree: int) -> int:
        """dim of the degree slice of ring/ideal, read off the Hilbert
        numerator of its grevlex leads."""
        return _series_coefficient(self.gb().hilbert_numerator, self.ring.nvars, degree)

    def graded_basis(self, degree: int):
        """Vector-space basis of the degree slice, in reduced echelon form."""
        if degree < 0 or not self.gens:
            return []
        ring = self.ring
        cols, vals = _degree_slice(self.gb(), degree)
        monos = ring.monomials_of_degree(degree)
        dense = np.zeros((len(cols), len(monos) + 1), dtype=np.int64)
        dense[np.arange(len(cols))[:, None], cols] = vals
        R, _ = linalg.rref(dense[:, :-1], ring.p)
        return [
            Polynomial(ring, {monos[i]: int(v) for i, v in enumerate(row) if v})
            for row in R
        ]

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens[:4])
        if len(self.gens) > 4:
            inside += ", ..."
        return f"Ideal({inside})"


def irrelevant_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, ring.gens())


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    return Ideal(a.ring, a.gens + b.gens)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Products of generator pairs; a square forms each unordered pair once."""
    if a.is_zero() or b.is_zero():
        return Ideal(a.ring, ())
    if a is b:
        pairs = combinations_with_replacement(a.gens, 2)
        return Ideal(a.ring, [f * g for f, g in pairs])
    return Ideal(a.ring, [f * g for f in a.gens for g in b.gens])


# ---------------------------------------------------------------------------
# Intersection and colon


def _last_component(rows) -> Ideal:
    """The ideal the rows' submodule meets the last coordinate axis in, by
    `_eliminate`.  With marks it holds its reduced grevlex basis; unmarked,
    it holds none, since homogeneous elements need a marked basis."""
    ring = rows[0].ring
    out, marks = _eliminate(rows, rows[0].shape.rank - 1)
    gens = tuple(z.component(0) for z in out)
    if marks is None:
        return Ideal(ring, gens)
    gb = GroebnerBasis(ring, FreeModuleShape.plain(1), ring.grevlex, gens, marks)
    return _holding(gb)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """a ∩ b: the rows (f, f) for f in a and (g, 0) for g in b meet the
    second coordinate axis exactly in it, as writing (0, h) forces h into a
    through the second coordinate and into b through the first."""
    if a.ring != b.ring:
        raise InvariantViolation("intersection across different rings")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return Ideal(ring, ())
    shape, zero = FreeModuleShape.plain(2), ring.zero()
    rows = [ModuleElement.from_polynomials(shape, [f, f]) for f in a.gens]
    rows += [ModuleElement.from_polynomials(shape, [g, zero]) for g in b.gens]
    return _last_component(rows)


def quotient(a: Ideal, b) -> Ideal:
    """Colon a : b for b = (g_1, ..., g_k) or one polynomial, in one basis.

    The rows (g_1, ..., g_k | 1) and f e_j for f in a and j < k meet the last
    coordinate axis exactly in a : b, as (h g_1 + ..., ..., h g_k + ... | h)
    vanishes in the first k components exactly when every h g_j lies in a.
    For homogeneous b, twisting component j by top - deg g_j and the last by
    top = max deg g_j keeps homogeneous input homogeneous.
    """
    ring = a.ring
    gs = [g for g in ([b] if isinstance(b, Polynomial) else b.gens) if g]
    if not gs:
        return Ideal(ring, [ring.one()])
    if a.is_zero():
        return Ideal(ring, ())
    k = len(gs)
    twists = (0,) * (k + 1)
    if all(g.is_homogeneous() for g in gs):
        top = max(g.homogeneous_degree() for g in gs)
        twists = tuple(top - g.homogeneous_degree() for g in gs) + (top,)
    shape = FreeModuleShape(k + 1, twists)
    zero = [ring.zero()] * k
    rows = [ModuleElement.from_polynomials(shape, gs + [ring.one()])]
    rows += [
        ModuleElement.from_polynomials(shape, zero[:j] + [f] + zero[j:])
        for j in range(k) for f in a.gens
    ]
    return _last_component(rows)


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals


def _minimal_monomials(monos) -> list[tuple]:
    """The minimal generators of the monomial ideal the exponent tuples
    generate, by ascending degree."""
    kept = []
    for m in sorted(set(monos), key=sum):
        if not any(all(map(le, k, m)) for k in kept):
            kept.append(m)
    return kept


def _numerator(gens: list[tuple]) -> list[int]:
    """Bigatti's pivot recursion on a minimal generating set.

    For a pivot p, 0 -> S/(M : p)(-deg p) -> S/M -> S/(M + p) -> 0 is exact,
    so N(M) = N(M + p) + t^deg(p) N(M : p).  The pivot is x_j^e, x_j the
    variable in most generators that are not pure powers and e the median of
    its positive exponents there.  M + p drops every generator x_j^e divides
    and stays minimal, so it has fewer mixed generators; M : p lowers the
    exponent sum.  Once every generator is a pure power of its own variable,
    N is the product of the 1 - t^deg.
    """
    if not gens:
        return [1]
    if not any(gens[0]):
        return []  # the unit ideal, which minimality leaves alone
    mixed = [m for m in gens if len(m) - m.count(0) > 1]
    if not mixed:
        out = [1]
        for m in gens:
            d = sum(m)
            nxt = out + [0] * d
            for k, c in enumerate(out):
                nxt[k + d] -= c
            out = nxt
        return out
    n = len(gens[0])
    j = max(range(n), key=lambda v: sum(1 for m in mixed if m[v]))
    exps = sorted(m[j] for m in mixed if m[j])
    e = exps[len(exps) // 2]
    pivot = tuple(e if v == j else 0 for v in range(n))
    out = _numerator([m for m in gens if m[j] < e] + [pivot])
    colon = _minimal_monomials(m[:j] + (max(m[j] - e, 0),) + m[j + 1 :] for m in gens)
    tail = _numerator(colon)
    out += [0] * max(0, len(tail) + e - len(out))
    for k, c in enumerate(tail):
        out[k + e] += c
    return out


def hilbert_numerator(leads) -> tuple[int, ...]:
    """N(t) with HS(S/M) = N(t)/(1-t)^n, M generated by the exponent tuples
    `leads` in n variables, as exact integer coefficients from t^0 up with no
    trailing zeros: () for the unit ideal, (1,) for no generators.

    For a Groebner basis of I the leads give HS(S/I) itself, since S/I and
    S/in(I) share a monomial basis (Macaulay).  Two quotients have the same
    Hilbert polynomial exactly when (1-t)^n divides the difference of their
    numerators (`_same_hilbert_polynomial`).
    """
    out = _numerator(_minimal_monomials(leads))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _series_coefficient(numerator, n: int, degree: int) -> int:
    """Coefficient of t^degree in numerator/(1-t)^n, 0 in negative degrees."""
    return sum(
        c * math.comb(degree - k + n - 1, n - 1)
        for k, c in enumerate(numerator[: max(degree + 1, 0)])
    )


def _numerator_sum(*signed) -> tuple[int, ...]:
    """Sum of s * N over the (s, N) pairs, trimmed like `hilbert_numerator`."""
    out = [0] * max(len(numerator) for _, numerator in signed)
    for s, numerator in signed:
        for k, c in enumerate(numerator):
            out[k] += s * c
    return tuple(_uni_trim(out))


def _root_multiplicity(coeffs, most: int) -> int:
    """Multiplicity of t = 1 as a root of sum coeffs[k] t^k, at most `most`."""
    c = list(coeffs)
    for k in range(most):
        if sum(c):
            return k
        c = list(accumulate(reversed(c[1:])))[::-1]  # c(t) / (t - 1)
    return most


def _same_hilbert_polynomial(a, b, n: int) -> bool:
    """Whether numerators a and b over n variables give one Hilbert
    polynomial: (1-t)^n divides a - b."""
    return _root_multiplicity(_numerator_sum((1, a), (-1, b)), n) >= n


# ---------------------------------------------------------------------------
# Saturation


def _strip_var(f: Polynomial, i: int) -> tuple[Polynomial, int]:
    v = min(m[i] for m in f.terms)
    if v == 0:
        return f, 0
    terms = {m[:i] + (m[i] - v,) + m[i + 1 :]: c for m, c in f.terms.items()}
    return Polynomial(f.ring, terms), v


@lru_cache(maxsize=None)
def _rotated_grevlex(n: int, var: int) -> Grevlex:
    perm = tuple(j for j in range(n) if j != var) + (var,)
    return Grevlex(n, perm)


def _divide_out(gb: GroebnerBasis, var: int) -> tuple[list[Polynomial], bool]:
    """Generators of the full colon by x_var^∞, from the reduced basis of a
    homogeneous ideal under an order whose cheapest variable is x_var."""
    pairs = [_strip_var(g, var) for g in gb.elements]
    return [h for h, _ in pairs], any(v for _, v in pairs)


def _divided_numerator(gb: GroebnerBasis, var: int) -> tuple[int, ...]:
    """N(t) of gb's leads with x_var divided out, kept in gb's memo."""
    key = ("divided", var)
    if key not in gb.derived:
        leads = [m[:var] + (0,) + m[var + 1 :] for m in gb.lead_monomials()]
        gb.derived[key] = hilbert_numerator(leads)
    return gb.derived[key]


def _holding(gb: GroebnerBasis) -> Ideal:
    """The ideal of a reduced basis, keeping that basis."""
    ideal = Ideal(gb.ring, gb.elements)
    ideal._bases[gb.order.name] = gb
    return ideal


def saturate_irrelevant(a: Ideal) -> Ideal:
    """Saturation with respect to m = (x_0, ..., x_{n-1}) by basis divide-out.

    Requires homogeneous input.  The variables are tried in the order
    x_{n-1}, x_0, ..., x_{n-2}.  For each, the reduced basis of I ordered with
    x_i cheapest is divided by x_i wherever it can be, which realises
    J = I : x_i^∞ in one pass (see the module docstring).  The order with
    x_{n-1} cheapest is the ring's grevlex order itself, whose basis callers
    already hold (`codimension`, `Ideal.contains`, the ideal's own bases), and
    in generic coordinates x_{n-1} settles the saturation, so no rotated basis
    is computed beside it.
    - If nothing divides out, I = J is stable under the colon by x_i, so it
      is already saturated.  It is returned with its grevlex basis, under
      which the rotated bases computed so far are cached too, so saturating
      it again computes none.
    - Otherwise J is saturated: x_i is a nonzerodivisor on S/J.  J contains
      I^sat, since f m^k in I puts f x_i^k in I.  I^sat/I has finite
      length, so if S/J and S/I have the same Hilbert polynomial then so do
      S/J and S/I^sat, and J/I^sat has finite length too: m^k J lies in
      I^sat for some k, and J = I^sat because I^sat is saturated.  Both
      polynomials come from leads in hand, the rotated basis's and those
      divided by their x_i-powers, so on equality J's grevlex basis is
      returned.
    - When every variable fails, some associated point of I^sat lies on
      each hyperplane x_i = 0, and the saturation is the intersection of the
      colons J, each taken from its own divide-out.
    Iterating single-variable colons instead would saturate by the product
    of the variables, a different and generally much larger ideal.  Reduced
    bases are unique, so every branch returns the same basis.
    """
    ring = a.ring
    if a.is_zero():
        return a
    if not a.is_homogeneous():
        raise ValueError("divide-out saturation needs homogeneous input")
    n = ring.nvars
    rotated = []
    parts = []
    for var in (n - 1, *range(n - 1)):
        gb = a.gb(_rotated_grevlex(n, var))
        rotated.append(gb)
        stripped, changed = _divide_out(gb, var)
        if not changed:
            basis = a.gb()
            for gb in rotated[1:]:  # rotated[0] is the grevlex basis itself
                _store_basis(gb, basis.elements)
            return _holding(basis)
        colon = Ideal(ring, stripped)
        numerator = _divided_numerator(gb, var)
        if _same_hilbert_polynomial(numerator, gb.hilbert_numerator, n):
            return _holding(colon.gb())
        parts.append(colon)
    return reduce(intersect, parts)


def saturate(a: Ideal, b: Ideal | None = None) -> Ideal:
    """Saturation a : b^∞; b defaults to the irrelevant ideal."""
    ring = a.ring
    if b is None or (a.is_homogeneous() and b.same_ideal(irrelevant_ideal(ring))):
        if a.is_homogeneous():
            return saturate_irrelevant(a)
        b = irrelevant_ideal(ring)
    prev = a
    for _ in range(50):
        nxt = quotient(prev, b)
        if nxt.same_ideal(prev):
            return Ideal(ring, prev.gb().elements)
        prev = nxt
    raise InvariantViolation("iterated colon saturation failed to stabilize")


# ---------------------------------------------------------------------------
# Codimension


def codimension(a: Ideal) -> int:
    """Height of the ideal: the multiplicity of t = 1 as a root of the
    Hilbert numerator of its grevlex leads.

    The lead ideal is a flat degeneration, so its codimension agrees, and
    HS(S/I) = N(t)/(1-t)^n has a pole of order dim S/I at t = 1.  Returns 0
    for the zero ideal (N = 1) and nvars + 1 for the unit ideal (N = 0).
    """
    return _root_multiplicity(a.gb().hilbert_numerator, a.ring.nvars + 1)


def curve_is_squarefree(f: Polynomial) -> bool:
    """No repeated component: the singular scheme has codimension >= 2."""
    ring = f.ring
    if not f or not f.is_homogeneous():
        raise ValueError("need a nonzero homogeneous form")
    d = f.homogeneous_degree()
    if d % ring.p == 0:
        raise CharacteristicError(
            "degree divisible by the characteristic; the criterion fails"
        )
    # Euler: d*f = sum x_i * df/dx_i with d invertible, so (f, df) = (df),
    # the Jacobian ideal whose basis the conductor computation shares.
    gens = [f.partial_derivative(i) for i in range(ring.nvars)]
    return codimension(Ideal(ring, gens)) >= 2


# ---------------------------------------------------------------------------
# Finite schemes: length, symbolic square, reducedness certificate


def scheme_length(a: Ideal) -> int:
    """Stable value of the Hilbert function of ring/a.

    Valid for a saturated ideal of a finite scheme: the function is
    nondecreasing and constant once it stabilizes, so the first repeat is the
    length; it comes by degree len(N) + 1, past which the function is a
    polynomial.
    """
    prev = a.quotient_dim(0)
    for e in range(1, len(a.gb().hilbert_numerator) + 2):
        cur = a.quotient_dim(e)
        if cur == prev:
            return cur
        prev = cur
    raise InvariantViolation("Hilbert function did not stabilize")


def symbolic_square(a: Ideal) -> Ideal:
    """Forms vanishing doubly on the finite scheme: saturate the square."""
    return saturate(ideal_product(a, a))


def indeg(a: Ideal) -> int:
    """Smallest degree of a nonzero element of a homogeneous ideal."""
    if a.is_zero():
        raise ValueError("the zero ideal has no initial degree")
    return min(g.homogeneous_degree() for g in a.minimal_gens())


@dataclass
class ReducednessReport:
    """Outcome of the reducedness certificate for a point scheme."""

    reduced: bool
    length: int
    distinct_points: int | None
    attempts: int

    def as_dict(self):
        return asdict(self)


@lru_cache(maxsize=None)
def _degree_exponents(n: int, degree: int) -> np.ndarray:
    """Read-only exponent matrix of the degree-`degree` monomials in n
    variables, one row each in `Ring.monomials_of_degree` order."""
    exps = np.array(grevlex_monomials(degree, n), dtype=np.int64).reshape(-1, n)
    exps.flags.writeable = False
    return exps


def _degree_slice(gb: GroebnerBasis, degree: int):
    """Echelon rows spanning the degree slice of the ideal of a grevlex basis.

    One row per degree-`degree` monomial m inside the lead ideal, in
    `Ring.monomials_of_degree` order: q*g for the first basis element g
    whose lead divides m, with q = m / lead(g).  Distinct leads make the rows
    independent, and the count matches the slice dimension.  Row r is held
    as cols[r], the column indices of its terms in increasing order, and
    vals[r], their coefficients; rows with fewer terms than the widest are
    padded with the sink column len(monomials) and value 0.

    Multiplying by q keeps the grevlex order of the terms, so for a monic
    grevlex basis the first column of each row is its lead m: the first
    columns strictly increase and carry the coefficient 1, and the rows are
    already in echelon form.  Any other basis order can break this, so it is
    checked and an InvariantViolation raised if it fails.
    """
    ring = gb.ring
    n = ring.nvars
    exps = _degree_exponents(n, degree)
    leads = gb.lead_monomials()
    # one broadcast compares every monomial against every lead; a row's
    # owner is the first lead dividing it
    lead_exps = np.array(leads, dtype=np.int64).reshape(len(leads), n)
    divides = (exps[:, None, :] >= lead_exps[None, :, :]).all(axis=2)
    hits = np.nonzero(divides.any(axis=1))[0]
    owner = divides[hits].argmax(axis=1)
    used = sorted(set(owner.tolist()))
    terms = {j: gb.elements[j].sorted_terms(ring.grevlex) for j in used}
    width = max((len(t) for t in terms.values()), default=1)
    cols = np.full((len(hits), width), len(exps), dtype=np.int64)
    vals = np.zeros((len(hits), width), dtype=np.int64)
    # column of a degree-`degree` monomial, looked up by its first n-1
    # exponents read as digits in base degree+1: (degree+1)^2 entries in the
    # plane
    radix = (degree + 1) ** np.arange(n - 2, -1, -1, dtype=np.int64)
    table = np.zeros((degree + 1) ** (n - 1), dtype=np.int64)
    table[exps[:, :-1] @ radix] = np.arange(len(exps))
    for j in used:
        term_exps = np.array([m for m, _ in terms[j]], dtype=np.int64)
        if np.any(term_exps.sum(axis=1) != sum(leads[j])):
            raise ValueError("graded slices need a homogeneous basis")
        rows = np.nonzero(owner == j)[0]
        q = exps[hits[rows], :-1] - np.array(leads[j][:-1], dtype=np.int64)
        shifted = q[:, None, :] + term_exps[None, :, :-1]
        cols[rows, : len(term_exps)] = table[shifted @ radix]
        vals[rows, : len(term_exps)] = [c for _, c in terms[j]]
    if len(hits) and not (
        np.all(np.diff(cols[:, 0]) > 0) and np.all(vals[:, 0] == 1)
    ):
        raise InvariantViolation(
            "degree slice rows are not in echelon form; the basis order is not grevlex"
        )
    return cols, vals


def _uni_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_deriv(c: list[int], p: int) -> list[int]:
    return _uni_trim([k * c[k] % p for k in range(1, len(c))])


def _uni_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        off = len(a) - len(b)
        for k in range(len(b)):
            a[off + k] = (a[off + k] - f * b[k]) % p
        _uni_trim(a)
    return a


def _uni_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        a, b = b, _uni_rem(a, b, p)
    return a


def _multiplication_matrices(gb: GroebnerBasis, r: int) -> np.ndarray:
    """X[i], the matrix of multiplication by x_i from (S/I)_r to (S/I)_{r+1}:
    row j is the normal form of x_i * m_j, m_j the j-th standard monomial of
    degree r, over the standard monomials of degree r + 1, by one forward
    substitution against the degree-(r+1) slice."""
    ring = gb.ring
    leads = gb.lead_monomials()
    std = [m for m in ring.monomials_of_degree(r) if not any(all(map(le, g, m)) for g in leads)]
    index = {m: k for k, m in enumerate(ring.monomials_of_degree(r + 1))}
    units = ring.monomials_of_degree(1)
    W = np.eye(len(index), dtype=np.int64)[[index[mono_mul(u, m)] for u in units for m in std]]
    cols, vals = _degree_slice(gb, r + 1)
    free = np.setdiff1d(np.arange(len(index)), cols[:, 0])
    X = linalg.reduce_mod_echelon(cols, vals, W, ring.p)[:, free]
    return X.reshape(3, len(std), len(std))


def _at_matrices(w: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """l(X) = sum of w_i X_i for l with coefficients w; each product is reduced
    mod p before the sum, so int64 holds it for every p below PRIME_LIMIT."""
    return (w[:, None, None] * X % p).sum(axis=0) % p


def _charpoly(T: np.ndarray, p: int) -> list[int]:
    """det(t - T) mod p, coefficients from t^0 up, by similarity to upper
    Hessenberg form H and the recurrence along its subdiagonal (H. Cohen, *A
    Course in Computational Algebraic Number Theory*, Alg. 2.2.9).  Every
    product of two residues is reduced mod p before it is summed."""
    H = np.array(T, dtype=np.int64) % p
    n = len(H)
    for j in range(n - 2):
        nz = np.nonzero(H[j + 1 :, j])[0]
        if nz.size == 0:
            continue
        i = j + 1 + int(nz[0])
        H[[i, j + 1]] = H[[j + 1, i]]
        H[:, [i, j + 1]] = H[:, [j + 1, i]]
        # row k -= u_k * row j+1 clears column j below the subdiagonal, and
        # column j+1 += sum u_k * column k keeps H similar to T
        u = H[j + 2 :, j] * pow(int(H[j + 1, j]), -1, p) % p
        H[j + 2 :, j:] = (H[j + 2 :, j:] - u[:, None] * H[j + 1, j:]) % p
        H[:, j + 1] = (H[:, j + 1] + (H[:, j + 2 :] * u % p).sum(axis=1)) % p
    h = H.tolist()
    P = np.zeros((n + 1, n + 1), dtype=np.int64)  # P[m] = det(t - H[:m, :m])
    P[0, 0] = 1
    for m in range(1, n + 1):
        # P[m] = t P[m-1] - sum over k < m of h[k][m-1] * h[k+1][k] * ...
        # * h[m-1][m-2] * P[k]
        w, run = [h[m - 1][m - 1]], 1
        for k in range(m - 2, -1, -1):
            run = run * h[k + 1][k] % p
            w.append(h[k][m - 1] * run % p)
        P[m, 1:] = P[m - 1, :-1]
        P[m] = (P[m] - (np.array(w[::-1])[:, None] * P[:m] % p).sum(axis=0)) % p
    return P[n].tolist()


def points_are_reduced(a: Ideal, seed: int = 0, attempts: int = 8) -> ReducednessReport:
    """Certify that a saturated finite scheme Z in the plane is reduced.

    Let delta be its length, r the first degree with HF(r) = delta, and X_i
    the delta x delta matrices of multiplication by x_i from (S/I)_r to
    (S/I)_{r+1} (`_multiplication_matrices`).  For M = l'(X) invertible,
    M^-1 l(X) is multiplication by l/l' on the coordinate ring of Z, whose
    characteristic polynomial is the product of (t - (l/l')(P))^mult(P) over
    the points P (Stickelberger; D. Cox, J. Little and D. O'Shea, *Using
    Algebraic Geometry*, ch. 2 §4).  It is squarefree exactly when Z is
    reduced and the projection from l1 = l2 = 0 separates its points.  Each
    attempt draws l1, l2 and takes the first invertible l2(X) + c l1(X),
    c = 0, 1, ...; det(u l1(X) + v l2(X)) vanishes identically only when the
    center lies on Z, so for p > delta some c <= delta works, while for
    p <= delta every c in F_p may fail the attempt.  A bad center can
    fail by luck, so the test retries; fat structure fails every attempt.

    Every step is a row operation b - v*c on residues, in (-(p-1)^2, p), or a
    sum of at most delta + 1 residues or products reduced mod p first, so
    int64 is exact for every p below linalg.PRIME_LIMIT = 2^31.
    """
    ring = a.ring
    if ring.nvars != 3:
        raise ValueError("the reducedness certificate works in the plane")
    if codimension(a) < 2:
        raise ValueError("not a finite scheme")
    delta = scheme_length(a)
    if delta == 0:
        return ReducednessReport(True, 0, 0, 0)
    r = next(e for e in range(delta) if a.quotient_dim(e) == delta)
    X = _multiplication_matrices(a.gb(), r)
    units, p = ring.monomials_of_degree(1), ring.p
    rng = random.Random(seed)
    for used in range(1, attempts + 1):
        l1, l2 = ring.random_linear(rng), ring.random_linear(rng)
        lin = np.array([[f.terms.get(m, 0) for m in units] for f in (l1, l2)])
        if linalg.rank(lin, p) < 2:
            continue
        A, B = (_at_matrices(w, X, p) for w in lin)
        for c in range(min(p, delta + 1)):
            # one rref of [M | A] tests M = B + c A and forms T = M^-1 A
            R, pivots = linalg.rref(np.hstack([(B + c * A % p) % p, A]), p)
            if len(pivots) == delta and pivots[-1] < delta:
                chi = _charpoly(R[:, delta:], p)
                if len(_uni_gcd(chi, _uni_deriv(chi, p), p)) == 1:
                    return ReducednessReport(True, delta, delta, used)
                break
    return ReducednessReport(False, delta, None, attempts)
