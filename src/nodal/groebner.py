"""Groebner bases for ideals and submodules of twisted free modules.

Every basis comes from one engine on packed terms: a degreewise Macaulay
elimination shaped like F4 that queues S-pairs with the Gebauer-Moeller
criteria (`_new_pairs`).  Each degree's matrix splits into reducer rows, one
per term a basis lead divides and already in echelon form, and the rest,
which are reduced against them by forward substitution before only they go
through `linalg.rref`.  Homogeneous input, ideals and submodules alike,
yields the reduced basis with no interreduction pass; inhomogeneous input
is homogenized with one more variable h, run the same way, set to h = 1 and
interreduced (`_homogenized_gb`).  One elimination, `_eliminate`, gives
syzygies, intersections and colons through the same dispatch and cache.

Every computation reads its degree cap off the ring (`Ring.cap`): no term of
total degree above it is built, and one that would raises DegreeCapExceeded.
A ring has one cap, so a basis cache key holds none.

Minimal generators of homogeneous input come out of the same Macaulay run,
with no elimination of their own: in each degree the engine marks the new
basis elements whose leads the S-pair rows of that degree do not reach, and
the basis carries the marks (`GroebnerBasis.minimal`).  `Ideal.minimal_gens`,
`_eliminate` and `resolution.resolve_presented` read them.

Terms of a module element are keyed (component, monomial) and compared through
integer keys, see ring.py.  Component twists record generator degrees, so the
module degree of a term is deg(monomial) + twist(component).
"""
from __future__ import annotations

import heapq
import struct
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DegreeCapExceeded,
    InvariantViolation,
    RingMismatchError,
)
from .ring import (
    DEFAULT_DEGREE_CAP,  # noqa: F401 - re-exported
    MAX_EXPONENT,
    Mono,
    MonomialOrder,
    Polynomial,
    Ring,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

# A module term is (component, monomial); module elements are dicts mapping
# terms to nonzero coefficients.
Term = tuple[int, Mono]

# Basis cache entries kept per ring, least recently used evicted first.  Above
# the most keys one ring fills (114, two per computed basis, counted with an
# unbounded cache over `nodal corpus fixtures` at 32003 and 32009 and `nodal
# verify --all --second-prime`), so eviction only bounds memory.
BASIS_CACHE_SIZE = 128


@dataclass(frozen=True)
class FreeModuleShape:
    """Rank and generator degrees of a twisted free module.

    Basis element i generates a copy of the ring shifted so that its generator
    sits in degree twists[i].
    """

    rank: int
    twists: tuple[int, ...]

    def __post_init__(self):
        if self.rank != len(self.twists):
            raise ValueError("twist count must equal rank")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    @classmethod
    def plain(cls, rank: int) -> "FreeModuleShape":
        return cls(rank, (0,) * rank)

    def term_degree(self, term: Term) -> int:
        comp, mono = term
        return mono_degree(mono) + self.twists[comp]


class ModuleOrder:
    """Total order on module terms, realised as an integer key.

    An order that bases are computed under has a `name` that, as for ring
    orders, identifies it among the orders of one ring.
    """

    def key(self, term: Term) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class PositionOverTerm(ModuleOrder):
    """Earlier components dominate; ties broken by the base ring order.

    The component sits 8*(n+2) bits up, clear of a grevlex or lex key of a
    monomial within the exponent limit.
    """

    __slots__ = ("base", "rank", "name", "_shift")

    def __init__(self, base: MonomialOrder, rank: int):
        self.base = base
        self.rank = rank
        self.name = f"pot:{rank}:{base.name}"
        self._shift = 8 * (base.n + 2)

    def key(self, term: Term) -> int:
        comp, mono = term
        return ((self.rank - comp) << self._shift) | self.base.key(mono)


class RingOrderAdapter(ModuleOrder):
    """Presents a ring monomial order as a rank-1 module order."""

    __slots__ = ("base",)

    def __init__(self, base: MonomialOrder):
        self.base = base

    def key(self, term: Term) -> int:
        return self.base.key(term[1])


class ModuleElement:
    """Element of a twisted free module over one ring."""

    __slots__ = ("ring", "shape", "terms", "_grading")

    def __init__(self, ring: Ring, shape: FreeModuleShape, terms: dict):
        self.ring = ring
        self.shape = shape
        self.terms = terms
        self._grading = None

    @classmethod
    def from_polynomials(cls, shape: FreeModuleShape, polys) -> "ModuleElement":
        polys = list(polys)
        if len(polys) != shape.rank:
            raise ValueError("component count must equal rank")
        ring = polys[0].ring
        terms: dict[Term, int] = {}
        for comp, f in enumerate(polys):
            if f.ring != ring:
                raise RingMismatchError("components over different rings")
            for mono, c in f.terms.items():
                terms[(comp, mono)] = c
        return cls(ring, shape, terms)

    def component(self, comp: int) -> Polynomial:
        terms = {m: c for (tc, m), c in self.terms.items() if tc == comp}
        return Polynomial(self.ring, terms)

    def components(self) -> list[Polynomial]:
        return [self.component(i) for i in range(self.shape.rank)]

    def _graded(self) -> tuple[bool, int | None]:
        """(homogeneous, common degree or None), from one walk of the terms.

        Elements are never changed after construction, so the walk is kept.
        """
        if self._grading is None:
            degs = {self.shape.term_degree(t) for t in self.terms}
            self._grading = (len(degs) <= 1, degs.pop() if len(degs) == 1 else None)
        return self._grading

    def module_degree(self):
        """Common degree of all terms, or None for the zero element."""
        homogeneous, degree = self._graded()
        if not homogeneous:
            raise InvariantViolation("module element is not homogeneous")
        return degree

    def is_homogeneous(self) -> bool:
        return self._graded()[0]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.shape == other.shape
            and self.terms == other.terms
        )

    __hash__ = None

    def __str__(self):
        return "(" + ", ".join(str(f) for f in self.components()) + ")"

    __repr__ = __str__


def _check_gens(gens):
    """Generators lie over one ring and, for a module, in one shape."""
    ring, shape = gens[0].ring, getattr(gens[0], "shape", None)
    for z in gens:
        if z.ring != ring or getattr(z, "shape", None) != shape:
            raise RingMismatchError("generators disagree on ring or shape")


def _poly_to_dict(f: Polynomial) -> dict:
    return {(0, m): c for m, c in f.terms.items()}


def _dict_to_poly(ring: Ring, d: dict) -> Polynomial:
    return Polynomial(ring, {m: c for (_, m), c in d.items()})


class _Gel:
    """Basis element for reduction: monic, lead split off the tail."""

    __slots__ = ("lead", "key", "tail", "full")

    def __init__(self, lead, key, tail, full):
        self.lead = lead
        self.key = key
        self.tail = tail  # tuple of (term, coeff), lead excluded
        self.full = full  # dict including the lead


def _make_gel(ring: Ring, d: dict, keyf) -> _Gel:
    lead = max(d, key=keyf)
    lc = d[lead]
    if lc != 1:
        inv = pow(lc, -1, ring.p)
        d = {t: c * inv % ring.p for t, c in d.items()}
    tail = tuple((t, c) for t, c in d.items() if t != lead)
    return _Gel(lead, keyf(lead), tail, d)


def _normal_form_dict(work_in, gels_by_comp, keyf, p, cap):
    """Remainder of a term dict fully reduced against the bucketed basis."""
    work = dict(work_in)
    heap = [(-keyf(t), t) for t in work]
    heapq.heapify(heap)
    rem: dict[Term, int] = {}
    while heap:
        _, t = heapq.heappop(heap)
        c = work.pop(t, 0)
        if not c:
            continue
        comp, mono = t
        red = None
        for g in gels_by_comp.get(comp, ()):
            if mono_divides(g.lead[1], mono):
                red = g
                break
        if red is None:
            rem[t] = c
            continue
        q = mono_div(mono, red.lead[1])
        for (tc, tm), gc in red.tail:
            nm = mono_mul(tm, q)
            if mono_degree(nm) > cap:
                raise DegreeCapExceeded(
                    f"reduction passed total degree {cap}", cap=cap
                )
            nt = (tc, nm)
            prev = work.get(nt)
            if prev is None:
                nv = -c * gc % p
                if nv:
                    work[nt] = nv
                    heapq.heappush(heap, (-keyf(nt), nt))
            else:
                nv = (prev - c * gc) % p
                if nv:
                    work[nt] = nv
                else:
                    del work[nt]
    return rem


def _new_pairs(leads, lead, coprime_skip):
    """Gebauer-Moeller update: the S-pairs a new lead term opens.

    leads: the earlier lead terms, by basis index.  Returns (i, lcm) pairs in
    increasing i, only between leads in the same component.  A candidate whose
    lcm another candidate's lcm properly divides is dropped (criterion M), one
    candidate is kept per distinct lcm (criterion F), and with coprime_skip a
    kept pair of coprime leads is dropped too: its S-pair reduces to zero,
    which holds in rank one only.
    """
    comp, mono = lead
    cand = [
        (i, mono_lcm(m, mono)) for i, (c, m) in enumerate(leads) if c == comp
    ]
    # A proper divisor has lower degree, and divisibility is transitive, so
    # the lcms no other lcm properly divides are found by testing each, in
    # increasing degree, against those found before it.
    minimal: list[Mono] = []
    for lcm in sorted({lcm for _, lcm in cand}, key=mono_degree):
        if not any(mono_divides(o, lcm) for o in minimal):
            minimal.append(lcm)
    minimal_set = set(minimal)
    pairs = []
    decided: set[Mono] = set()
    for i, lcm in cand:
        if lcm in decided:
            continue
        decided.add(lcm)
        if lcm not in minimal_set:
            continue
        if coprime_skip and lcm == mono_mul(leads[i][1], mono):
            continue
        pairs.append((i, lcm))
    return pairs


def _interreduce(ring, gels, keyf, cap):
    """Minimal lead set, then tail reduction: the reduced basis."""
    p = ring.p
    order_idx = sorted(range(len(gels)), key=lambda i: gels[i].key)
    kept: list[_Gel] = []
    for i in order_idx:
        g = gels[i]
        if any(
            h.lead[0] == g.lead[0] and mono_divides(h.lead[1], g.lead[1])
            for h in kept
        ):
            continue
        kept.append(g)
    out: list[_Gel] = []
    for g in kept:
        others: dict[int, list[_Gel]] = {}
        for h in kept:
            if h is not g:
                others.setdefault(h.lead[0], []).append(h)
        rem = _normal_form_dict(g.full, others, keyf, p, cap)
        out.append(_make_gel(ring, rem, keyf))
    out.sort(key=lambda g: g.key)
    return out


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis, monic elements sorted by ascending lead.

    minimal indexes, by degree and then by position, the elements the
    Macaulay engine marked: a minimal generating set of the ideal or module,
    or for syzygy rows of the syzygies (see `syzygy_generators`).  It is None
    for a basis of inhomogeneous input, which is unmarked (`_homogenized_gb`).
    derived memoizes the leads and the Hilbert numerator, which hold no ring;
    a basis rebuilt from its cache entry shares the entry's memo.
    """

    ring: Ring
    shape: FreeModuleShape
    order: object  # MonomialOrder for rank 1, ModuleOrder otherwise
    elements: tuple
    minimal: tuple | None = None
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def minimal_elements(self) -> list:
        return [self.elements[i] for i in self.minimal]

    @property
    def rank1(self) -> bool:
        return isinstance(self.order, MonomialOrder)

    def term_key(self):
        if self.rank1:
            return RingOrderAdapter(self.order).key
        return self.order.key

    def lead_monomials(self) -> tuple:
        if "leads" not in self.derived:
            if self.rank1:
                leads = (f.lead_monomial(self.order) for f in self.elements)
            else:
                leads = (max(z.terms, key=self.order.key) for z in self.elements)
            self.derived["leads"] = tuple(leads)
        return self.derived["leads"]

    @property
    def hilbert_numerator(self) -> tuple:
        """`ideals.hilbert_numerator` of the leads of an ideal's basis."""
        if "numerator" not in self.derived:
            from .ideals import hilbert_numerator

            self.derived["numerator"] = hilbert_numerator(self.lead_monomials())
        return self.derived["numerator"]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


class _CacheEntry:
    """A basis as its ring's cache keeps it: every part but the ring.

    A basis and its elements point at their ring, so a cache holding them
    would make each ring a reference cycle, and a dropped ring would wait for
    a full cyclic collection.  The entry keeps the shape, the order, each
    element's terms, the marks and the basis's `derived` memo, and weakly the
    ring and the basis object last built from them, which `basis` returns
    while anything else holds it.
    """

    __slots__ = ("_ring", "shape", "order", "terms", "minimal", "derived", "_basis")

    def __init__(self, gb: GroebnerBasis):
        self._ring = weakref.ref(gb.ring)
        self.shape = gb.shape
        self.order = gb.order
        self.terms = tuple(z.terms for z in gb.elements)
        self.minimal = gb.minimal
        self.derived = gb.derived
        self._basis = weakref.ref(gb)

    @property
    def ring(self) -> Ring:
        return self._ring()

    def basis(self) -> GroebnerBasis:
        gb = self._basis()
        if gb is None:
            ring = self.ring
            if isinstance(self.order, MonomialOrder):
                elements = tuple(Polynomial(ring, t) for t in self.terms)
            else:
                elements = tuple(
                    ModuleElement(ring, self.shape, t) for t in self.terms
                )
            gb = GroebnerBasis(
                ring, self.shape, self.order, elements, self.minimal, self.derived
            )
            self._basis = weakref.ref(gb)
        return gb


def _resolve_order(ring: Ring, order) -> MonomialOrder:
    if order is None:
        return ring.grevlex
    if order.n != ring.nvars:
        raise RingMismatchError("order arity does not match the ring")
    return order


def _macaulay_engine(p, n, twists, inputs, keyf, cap, minimal_from):
    """Homogeneous basis completion by degreewise row reduction.

    n: exponent fields per monomial.  inputs: (terms dict keyed by
    (component, monomial), module degree) pairs.
    Each outstanding degree e assembles a matrix from the S-pair multiples
    and the inputs of degree e, then closes it under reduction symbolically:
    every occurring term that a basis lead divides gets exactly one echelon
    row with that lead, an S-pair multiple when one has it and a shifted
    basis element otherwise.  These rows form the block A of F4
    (J.-C. Faugere, JPAA 139, 1999): their leads are distinct and they are
    monic, so they are already in echelon form and never enter `linalg.rref`.
    Every other row, the inputs of degree e and all but one S-pair multiple
    per lead, forms the block C.  C is reduced against A by forward
    substitution (`linalg.reduce_mod_echelon`, exact in int64 for every
    prime below linalg.PRIME_LIMIT), taking the A pivots in increasing
    column order, which is descending term order.  Then `linalg.rref` runs
    on the reduced C alone, over the columns no A row leads.  Each of
    its pivots is a term no basis lead divides, so it is a new lead.  S-pairs
    are queued through `_new_pairs` by the degree of their lcm, so no degree
    with outstanding pairs is skipped, which is the Buchberger termination
    argument.  The coprime-lead shortcut is only sound in rank one, so it is
    taken exactly when there is one twist.

    Returns the reduced basis as term dicts sorted by ascending lead key,
    and the positions of the marked elements by degree and then position.
    There is no interreduction pass, because the harvested rows are already
    reduced:
    - each comes from a fully reduced `rref` of C with unit pivots, so it is
      monic and free of every other new lead of its degree;
    - symbolic preprocessing gives every occurring term that an earlier lead
      divides an A row, and reduced C vanishes in those columns, so no tail
      term is divisible by an earlier lead;
    - degrees are processed in increasing order, and a lead of higher degree
      never divides a term of lower degree in the same component, so no later
      lead divides a tail term either;
    - the new leads of one degree are distinct terms of that degree, none
      divisible by an earlier lead, so the lead set is minimal.
    Reduced bases are unique, so the result does not depend on which row
    serves as a lead's A row.

    The run also marks minimal generators, degree by degree as in R. La Scala
    and M. Stillman (JSC 26, 1998).  The S-pairs of degree e are between
    elements of lower degree, so with their A rows and the reducer rows they
    span (S_+ M)_e, the degree-e part of the submodule the lower-degree
    elements generate.  Its leads are the terms an earlier lead divides and
    the pivots of the S-pair rows of C after forward substitution, which one
    more `rref` finds.  A new element whose lead is not among those pivots is
    marked: the marked elements of degree e have distinct leads outside the
    leads of (S_+ M)_e, so they are independent modulo it, and there are
    dim M_e - dim (S_+ M)_e of them, a complement.  Only S-pairs whose lcm
    lies in component minimal_from or later count, and only elements led
    there are marked.  Under position over term those are the elements with
    no term below minimal_from, so the marks minimally generate that
    submodule; for the rows (g_i | e_i) with minimal_from = k they are the
    minimal syzygies.  The marks depend only on the module, the order and
    minimal_from, not on the input list.

    Terms are packed ints inside the engine (M. Monagan and R. Pearce, CASC
    2007): a shift is an add, and a lead l divides a term t of the same
    component exactly when ((t | G) - l) & G == G, G holding the top bit of
    each field.  That test is exact while every exponent stays below 2^15,
    since then no field borrows from the next.  It does: inputs are checked
    against the cap before they are packed, every term of a finished degree
    has total degree at most cap <= MAX_EXPONENT = 255 (callers pass
    `ring.cap`, which `Ring` checks), and a term built before the cap check
    fires is a shift of such a term by a monomial of degree at most cap, so
    its exponents stay below 2*255.
    Order keys are computed once per distinct term from its unpacked tuple,
    and unpacking goes through one memo per run, so the output elements
    share one tuple per term.
    """
    coprime_skip = len(twists) == 1
    # A packed term is the big-endian int of the component as 64 bits and
    # then n exponent fields of 16 bits, so a shift is an add.
    layout = struct.Struct(f">Q{n}H")
    comp_shift = 16 * n
    guard = sum(1 << (16 * i + 15) for i in range(n))
    unpacked: dict[int, Term] = {}  # packed term -> (component, monomial)
    keys: dict[int, int] = {}  # packed term -> order key

    def pack(term):
        t = int.from_bytes(layout.pack(term[0], *term[1]), "big")
        unpacked.setdefault(t, term)
        return t

    def unpack(t):
        term = unpacked.get(t)
        if term is None:
            comp, *mono = layout.unpack(t.to_bytes(layout.size, "big"))
            term = unpacked[t] = (comp, tuple(mono))
        return term

    by_deg: dict[int, list[dict]] = {}
    for terms, d in inputs:
        by_deg.setdefault(d, []).append(terms)
    pending = set(by_deg)
    bterms: list[list[int]] = []  # packed terms of each basis element, lead first
    bcoefs: list[list[int]] = []
    leads: list[Term] = []  # lead term of each basis element, unpacked
    leads_by_comp: dict[int, list[tuple[int, int]]] = {}  # (packed lead, index)
    pairs: dict[int, list[tuple[int, int, int]]] = {}  # (i, j, packed lcm)
    marked: list[tuple[int, int]] = []  # (degree, basis index)

    while pending:
        e = min(pending)
        pending.discard(e)
        # components in which a term of module degree e passes the cap
        over = {c for c, tw in enumerate(twists) if e - tw > cap}
        crows: list[tuple[list[int], list[int]]] = []  # the block C
        for d in by_deg.get(e, ()):
            if any(c in over for c, _ in d):
                raise DegreeCapExceeded(
                    f"degree {e} builds monomials past the cap {cap}", cap=cap
                )
            crows.append(([pack(t) for t in d], list(d.values())))
        arow: dict[int, tuple[int, int]] = {}  # A: lead -> (basis index, shift)
        seen = set()
        counted = []  # S-pair rows of C that count for the marks
        for i, j, lcm in pairs.pop(e, ()):
            rows = counted if lcm >> comp_shift >= minimal_from else crows
            for idx in (i, j):
                q = lcm - bterms[idx][0]
                if (idx, q) in seen:
                    continue
                seen.add((idx, q))
                if lcm not in arow:
                    arow[lcm] = (idx, q)
                else:
                    rows.append(([t + q for t in bterms[idx]], bcoefs[idx]))
        # C is the inputs, the S-pair rows that do not count, then those that do
        n_other = len(crows)
        crows += counted
        if not crows:
            continue
        # symbolic preprocessing, one generation of new terms at a time
        occurring: set[int] = set()
        new = {t for ts, _ in crows for t in ts}
        for idx, q in arow.values():
            new.update([t + q for t in bterms[idx]])
        while new:
            occurring |= new
            grown: set[int] = set()
            for t in new:
                tc = t >> comp_shift
                if tc in over:
                    raise DegreeCapExceeded(
                        f"degree {e} builds monomials past the cap {cap}", cap=cap
                    )
                if t in arow:
                    continue
                tg = t | guard
                for lt, bidx in leads_by_comp.get(tc, ()):
                    if (tg - lt) & guard == guard:
                        q = t - lt
                        arow[t] = (bidx, q)
                        grown.update([s + q for s in bterms[bidx]])
                        break
            new = grown - occurring
        for t in occurring:
            if t not in keys:
                keys[t] = keyf(unpack(t))
        cols = sorted(occurring, key=keys.__getitem__, reverse=True)
        col = {t: k for k, t in enumerate(cols)}
        C = np.zeros((len(crows), len(cols)), dtype=np.int64)
        for k, (ts, cs) in enumerate(crows):
            C[k, [col[t] for t in ts]] = cs
        apiv = sorted(col[t] for t in arow)
        width = max((len(bterms[b]) for b, _ in arow.values()), default=1)
        acols = np.full((len(apiv), width), len(cols))
        avals = np.zeros((len(apiv), width), dtype=np.int64)
        for k, c in enumerate(apiv):
            bidx, q = arow[cols[c]]
            ts = bterms[bidx]
            acols[k, : len(ts)] = [col[s + q] for s in ts]
            avals[k, : len(ts)] = bcoefs[bidx]
        C = linalg.reduce_mod_echelon(acols, avals, C, p)
        free = np.ones(len(cols), dtype=bool)
        free[apiv] = False
        fcols = np.flatnonzero(free).tolist()
        C = C[:, fcols]
        if not C.any():
            continue
        R, piv = linalg.rref(C, p)
        # pivots of the counted S-pair rows: leads of (S_+ M)_e no earlier
        # lead divides; needless when no new lead can be marked
        if n_other == 0:
            reached = set(piv)
        elif counted and any(
            cols[fcols[c]] >> comp_shift >= minimal_from for c in piv
        ):
            reached = set(linalg.rref(C[n_other:], p)[1])
        else:
            reached = set()
        for r, c in enumerate(piv):
            nz = np.flatnonzero(R[r]).tolist()
            ts = [cols[fcols[k]] for k in nz]
            cs = R[r, nz].tolist()
            lead = unpack(ts[0])
            lc = lead[0]
            j = len(bterms)
            if lc >= minimal_from and c not in reached:
                marked.append((e, j))
            for i, lcm in _new_pairs(leads, lead, coprime_skip):
                d = mono_degree(lcm) + twists[lc]
                pairs.setdefault(d, []).append((i, j, pack((lc, lcm))))
                pending.add(d)
            bterms.append(ts)
            bcoefs.append(cs)
            leads.append(lead)
            leads_by_comp.setdefault(lc, []).append((ts[0], j))
    ranked = sorted(range(len(bterms)), key=lambda i: keys[bterms[i][0]])
    pos = {j: r for r, j in enumerate(ranked)}
    basis = [{unpack(t): c for t, c in zip(bterms[i], bcoefs[i])} for i in ranked]
    return basis, tuple(r for _, r in sorted((e, pos[j]) for e, j in marked))


def macaulay_gb(gens, order=None) -> GroebnerBasis:
    """Reduced basis of a homogeneous ideal by degreewise row reduction.

    Valid for any global order because a homogeneous ideal is the direct sum
    of its graded pieces: the echelon form of a degree-e matrix, columns
    sorted by descending order key, exposes the lead monomials achievable
    from its rows.
    """
    gens = [f for f in gens if f]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    _check_gens(gens)
    ring = gens[0].ring
    order = _resolve_order(ring, order)
    keyf = RingOrderAdapter(order).key
    # homogeneous_degree raises ValueError on inhomogeneous input
    inputs = [(_poly_to_dict(f), f.homogeneous_degree()) for f in gens]
    basis, minimal = _macaulay_engine(
        ring.p, ring.nvars, (0,), inputs, keyf, ring.cap, minimal_from=0
    )
    elements = tuple(_dict_to_poly(ring, terms) for terms in basis)
    return GroebnerBasis(ring, FreeModuleShape.plain(1), order, elements, minimal)


def macaulay_module_gb(gens, order=None, *, _minimal_from: int = 0) -> GroebnerBasis:
    """Reduced basis of a homogeneous submodule by degreewise row reduction.

    _minimal_from is for `_eliminate` alone: the marks then count only the
    submodule with no term below that component (see `_macaulay_engine`).
    """
    gens = [z for z in gens if z]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    _check_gens(gens)
    if not all(z.is_homogeneous() for z in gens):
        raise ValueError("macaulay_module_gb needs homogeneous input")
    ring = gens[0].ring
    shape = gens[0].shape
    if order is None:
        order = PositionOverTerm(ring.grevlex, shape.rank)

    inputs = [(z.terms, z.module_degree()) for z in gens]
    basis, minimal = _macaulay_engine(
        ring.p, ring.nvars, shape.twists, inputs, order.key, ring.cap,
        minimal_from=_minimal_from,
    )
    elements = tuple(ModuleElement(ring, shape, terms) for terms in basis)
    return GroebnerBasis(ring, shape, order, elements, minimal)


def _sorted_terms(z) -> tuple:
    """Exact canonical form of one element's terms.

    Two parallel tuples in sorted term order.  They share the term and
    coefficient objects of the element, so a cached key costs two pointers
    per term where a frozenset of (term, coefficient) pairs would cost a new
    pair and a hash slot.
    """
    terms = tuple(sorted(z.terms))
    return terms, tuple([z.terms[t] for t in terms])


def _generator_set(elements) -> frozenset:
    """Canonical form of a generator list: the set of its elements' terms."""
    return frozenset(_sorted_terms(z) for z in elements if z)


def _homogenized_gb(gens, order) -> GroebnerBasis:
    """Reduced basis of inhomogeneous input through the Macaulay engine.

    Each element is homogenized to its top module degree with a new last
    variable h, and the engine runs on n + 1 exponent fields under >_h:
    degree first, then the given order on the h-free part, a monomial order
    for every order given, lex included.  The lead of a homogeneous g under
    >_h is the lead of g at h = 1 times a power of h, and for f in the input's
    span some h^k f^h lies in the homogenized span, so the basis at h = 1 is
    a Groebner basis (Bayer-Stillman, Invent. Math. 87, 1987; Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 8 §4).  No two terms of one
    component of a homogeneous element share an h-free part, so h = 1 merges
    no terms; interreduction gives the reduced basis.  Marks would be those of
    the homogenized input, so the run makes none and the basis carries none.
    """
    ring = gens[0].ring
    module = isinstance(gens[0], ModuleElement)
    shape = gens[0].shape if module else FreeModuleShape.plain(1)
    keyf = order.key if module else RingOrderAdapter(order).key
    degree = shape.term_degree
    inputs = []
    for z in gens:
        d = z.terms if module else _poly_to_dict(z)
        top = max(map(degree, d))
        h = {(c, m + (top - degree((c, m)),)): v for (c, m), v in d.items()}
        inputs.append((h, top))
    basis, _ = _macaulay_engine(
        ring.p, ring.nvars + 1, shape.twists, inputs,
        lambda t: keyf((t[0], t[1][:-1])), ring.cap, minimal_from=shape.rank,
    )
    gels = [
        _make_gel(ring, {(c, m[:-1]): v for (c, m), v in d.items()}, keyf)
        for d in basis
    ]
    gels = _interreduce(ring, gels, keyf, ring.cap)
    if module:
        elements = tuple(ModuleElement(ring, shape, g.full) for g in gels)
    else:
        elements = tuple(_dict_to_poly(ring, g.full) for g in gels)
    return GroebnerBasis(ring, shape, order, elements)


def groebner_basis(gens, order=None, *, _minimal_from: int = 0) -> GroebnerBasis:
    """Reduced Groebner basis, for ideals and submodules, by the Macaulay engine.

    Homogeneous input goes to `macaulay_gb` (ideals) or `macaulay_module_gb`
    (submodules); anything else is homogenized into the same engine
    (`_homogenized_gb`).  Zero generators are skipped, and input of zeros
    alone has the empty basis.  _minimal_from is for `_eliminate` alone
    and passes to `macaulay_module_gb`.

    Each ring caches the bases computed over it, keyed by the order's name,
    the module shape (rank one for polynomials), _minimal_from, which the
    marks depend on, and the generator set, so every ideal or
    submodule named by the same generators, in any list order and by any
    object, shares one computation.  A computed basis is also stored under
    its own elements: an ideal built from a reduced basis finds it without
    recomputing.  The key holds no cap: every basis over a ring obeys the
    ring's cap.  The cache holds no reference back to the ring
    (`_CacheEntry`), so a dropped ring is freed at once.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    # before the cache lookup, which reads the ring of the first element only
    _check_gens(gens)
    ring = gens[0].ring
    module = isinstance(gens[0], ModuleElement)
    shape = gens[0].shape if module else FreeModuleShape.plain(1)
    if not module:
        order = _resolve_order(ring, order)
    elif order is None:
        order = PositionOverTerm(ring.grevlex, shape.rank)
    live = [z for z in gens if z]
    if not live:
        return GroebnerBasis(ring, shape, order, ())
    cache = ring.basis_cache
    key = (order.name, shape, _minimal_from, _generator_set(live))
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
        return entry.basis()
    if not all(z.is_homogeneous() for z in live):
        gb = _homogenized_gb(live, order)
    elif module:
        gb = macaulay_module_gb(live, order, _minimal_from=_minimal_from)
    else:
        gb = macaulay_gb(live, order)
    _store_basis(gb, live, _minimal_from)
    return gb


def _store_basis(gb: GroebnerBasis, gens, minimal_from: int = 0) -> None:
    """Cache gb under the generator set `gens` and under its own elements.

    gens must generate the same ideal or submodule as gb, and gb's marks must
    be made for minimal_from.  A basis of inhomogeneous input has no marks,
    so it is kept under its generators only: its elements may be
    homogeneous, and a request that names them must get a marked basis.  The
    cache drops its least recently used entries beyond BASIS_CACHE_SIZE.
    """
    cache = gb.ring.basis_cache
    entry = _CacheEntry(gb)
    named = (gens,) if gb.minimal is None else (gens, gb.elements)
    for elements in named:
        k = (gb.order.name, gb.shape, minimal_from, _generator_set(elements))
        cache[k] = entry
        cache.move_to_end(k)
    while len(cache) > BASIS_CACHE_SIZE:
        cache.popitem(last=False)


def normal_form(f, gb: GroebnerBasis):
    """Remainder of f on full division by the basis.

    The reduction is bounded by MAX_EXPONENT, the largest degree an order key
    holds, not by the ring's cap; a term past it raises DegreeCapExceeded.
    """
    ring = gb.ring
    keyf = gb.term_key()
    if isinstance(f, Polynomial):
        if not gb.rank1:
            raise RingMismatchError("polynomial against a module basis")
        if f.ring != ring:
            raise RingMismatchError("polynomial over a different ring")
        d = _poly_to_dict(f)
        src = [_poly_to_dict(g) for g in gb.elements]
    else:
        if f.ring != ring or f.shape != gb.shape:
            raise RingMismatchError("element does not match the basis module")
        d = dict(f.terms)
        src = [dict(z.terms) for z in gb.elements]
    by_comp: dict[int, list[_Gel]] = {}
    for gd in src:
        g = _make_gel(ring, gd, keyf)
        by_comp.setdefault(g.lead[0], []).append(g)
    rem = _normal_form_dict(d, by_comp, keyf, ring.p, MAX_EXPONENT)
    if isinstance(f, Polynomial):
        return _dict_to_poly(ring, rem)
    return ModuleElement(ring, gb.shape, rem)


# ---------------------------------------------------------------------------
# Elimination: syzygies, intersections and colons


def _eliminate(rows, k: int):
    """The submodule of the rows with no term below component k (Cox, Little
    and O'Shea, Ideals, Varieties, and Algorithms, ch. 4).

    Under position over term a basis element led in component k or later has
    no term below k, so these elements are that submodule's reduced basis.
    Their leads are the smallest, so they come first, and the engine's marks
    for minimal_from = k index them as they are.  Returns them moved down k
    components and the marks, None when the rows are inhomogeneous.
    """
    ring, shape = rows[0].ring, rows[0].shape
    gb = groebner_basis(rows, _minimal_from=k)  # position over term
    rest = FreeModuleShape(shape.rank - k, shape.twists[k:])
    out = [
        ModuleElement(ring, rest, {(c - k, t): v for (c, t), v in z.terms.items()})
        for z in gb.elements
        if all(c >= k for c, _ in z.terms)
    ]
    return out, gb.minimal


def syzygy_generators(gens):
    """Generators of the syzygy module of the given generator list.

    Schreyer's theorem read as elimination (Eisenbud, Commutative Algebra,
    Thm 15.10): the rows (g_i | e_i), g_i in components 0..k-1 and the unit
    e_i in component k + i twisted by deg g_i, span {(sum a_i g_i | a)}, whose
    elements with no g part are the syzygies (`_eliminate`).  Homogeneous
    input returns the marked, minimal ones sorted; inhomogeneous input every
    syzygy basis element, in basis order.
    """
    gens = list(gens)
    if not gens:
        return []
    if isinstance(gens[0], Polynomial):
        plain = FreeModuleShape.plain(1)
        gens = [ModuleElement.from_polynomials(plain, [f]) for f in gens]
    _check_gens(gens)
    ring, shape = gens[0].ring, gens[0].shape
    k, m = shape.rank, len(gens)
    twists = tuple(
        (z.module_degree() or 0) if z.is_homogeneous() else 0 for z in gens
    )
    rows_shape = FreeModuleShape(k + m, shape.twists + twists)
    one = tuple([0] * ring.nvars)
    rows = [
        ModuleElement(ring, rows_shape, {**z.terms, (k + i, one): 1})
        for i, z in enumerate(gens)
    ]
    out, marks = _eliminate(rows, k)
    if marks is None:
        return out
    key_order = PositionOverTerm(ring.grevlex, m)
    return sorted(
        (out[i] for i in marks),
        key=lambda z: (z.module_degree(), sorted(map(key_order.key, z.terms))),
    )
