"""Minimal graded free resolutions by iterated syzygies.

Every resolution starts from a minimal presentation: generator twists and
a minimal set of relations, none with a unit entry.  Each further level is
the syzygy module of the one before, on a minimal generating set.  A syzygy
of minimal generators cannot carry a unit coordinate (that would make one
generator redundant), so the chain is minimal by construction, level by
level (D. Eisenbud, The Geometry of Syzygies, ch. 1).  Nothing rewrites a
chain after it is built.  Every constructed resolution is verified on the
spot instead: consecutive maps compose to zero, entry degrees match the
twist bookkeeping, no nonzero scalar entry occurs, and the alternating
Betti sum sum_i (-1)^i sum_j beta_{i,j} t^j is exactly the numerator N(t) of
the module's Hilbert series N(t)/(1-t)^n: N of the basis's leads for S/I,
1 - N for I, or the caller's numerator for a presented module.  A chain
that fails any check is refused with InvariantViolation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .groebner import (
    FreeModuleShape,
    ModuleElement,
    groebner_basis,
    syzygy_generators,
)
from .ideals import Ideal, _numerator_sum
from .ring import Polynomial, Ring

Matrix = tuple[tuple[Polynomial, ...], ...]


@dataclass(frozen=True)
class FreeResolution:
    """Chain F_0 <- F_1 <- ... of twisted free modules over one ring.

    maps[i] sends F_{i+1} into F_i; rows index generators of F_i, columns
    generators of F_{i+1}.  twists[i] lists the generator degrees of F_i,
    so a nonzero entry at (r, c) of maps[i] is homogeneous of degree
    twists[i+1][c] - twists[i][r].  A rank-zero F_0 encodes the zero
    module (the convention used for a unit conductor).
    """

    ring: Ring
    twists: tuple[tuple[int, ...], ...]
    maps: tuple[Matrix, ...]

    @property
    def length(self) -> int:
        return len(self.twists) - 1

    def betti(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for i, level in enumerate(self.twists):
            for t in level:
                out[(i, t)] = out.get((i, t), 0) + 1
        return out

    def regularity(self) -> int:
        """max(j - i) over nonzero Betti numbers; 0 for the zero module."""
        return max((j - i for (i, j) in self.betti()), default=0)

    @property
    def numerator(self) -> tuple[int, ...]:
        """sum_i (-1)^i sum_{j in twists[i]} t^j, trimmed: the numerator of
        the resolved module's Hilbert series over (1-t)^n."""
        out = [0] * (self.max_twist() + 1)
        for i, level in enumerate(self.twists):
            for t in level:
                out[t] += (-1) ** i
        return _numerator_sum((1, out))

    def max_twist(self) -> int:
        return max((t for level in self.twists for t in level), default=0)


def _compose_entry(ring: Ring, a: Matrix, b: Matrix, r: int, c: int, rank: int):
    s = ring.zero()
    for k in range(rank):
        s = s + a[r][k] * b[k][c]
    return s


def _verify_resolution(res: FreeResolution, numerator) -> None:
    ring = res.ring
    for i, mat in enumerate(res.maps):
        rows, cols = res.twists[i], res.twists[i + 1]
        if len(mat) != len(rows) or any(len(row) != len(cols) for row in mat):
            raise InvariantViolation("resolution matrix shape mismatch")
        for r, row in enumerate(mat):
            for c, f in enumerate(row):
                if not f:
                    continue
                if cols[c] == rows[r]:
                    raise InvariantViolation("resolution not minimal")
                if not f.is_homogeneous() or f.homogeneous_degree() != cols[c] - rows[r]:
                    raise InvariantViolation("map entry degree mismatch")
    for i in range(len(res.maps) - 1):
        a, b = res.maps[i], res.maps[i + 1]
        mid = len(res.twists[i + 1])
        for r in range(len(res.twists[i])):
            for c in range(len(res.twists[i + 2])):
                if _compose_entry(ring, a, b, r, c, mid):
                    raise InvariantViolation("consecutive maps do not compose to zero")
    if res.numerator != _numerator_sum((1, numerator)):
        raise InvariantViolation("alternating Betti sum is not the Hilbert numerator")


def _freeze(ring: Ring, twists: list, maps: list, numerator) -> FreeResolution:
    res = FreeResolution(
        ring,
        tuple(tuple(level) for level in twists),
        tuple(tuple(tuple(row) for row in m) for m in maps),
    )
    _verify_resolution(res, numerator)
    return res


def _resolve(ring: Ring, gen_twists, relations, numerator) -> FreeResolution:
    """Resolution of the free module on gen_twists modulo the relations.

    The relations must be a minimal generating set with no unit entry.  Each
    further level is `syzygy_generators` of the one before, appended until
    it vanishes.  By Hilbert's syzygy theorem that takes at most nvars
    steps, so a chain still growing after nvars + 1 is refused.
    """
    twists: list = [tuple(gen_twists)]
    maps: list = []
    level = list(relations)
    for _ in range(ring.nvars + 1):
        if not level:
            break
        rank = len(twists[-1])
        twists.append(tuple(z.module_degree() for z in level))
        maps.append([[z.component(r) for z in level] for r in range(rank)])
        level = syzygy_generators(level)
    if level:
        raise InvariantViolation("resolution did not terminate")
    return _freeze(ring, twists, maps, numerator)


def resolve_quotient(ideal: Ideal) -> FreeResolution:
    """Minimal free resolution of S/I: S modulo the minimal generators."""
    ring = ideal.ring
    if ideal.is_unit():
        return _resolve(ring, (), [], ())
    plain = FreeModuleShape.plain(1)
    rels = [ModuleElement.from_polynomials(plain, [g]) for g in ideal.minimal_gens()]
    return _resolve(ring, (0,), rels, ideal.gb().hilbert_numerator)


def resolve_ideal(ideal: Ideal) -> FreeResolution:
    """Minimal free resolution of the ideal as a graded module: its minimal
    generators modulo their syzygies."""
    gens = ideal.minimal_gens()
    twists = tuple(g.homogeneous_degree() for g in gens)
    rels = syzygy_generators(gens)
    numerator = _numerator_sum((1, (1,)), (-1, ideal.gb().hilbert_numerator))
    return _resolve(ideal.ring, twists, rels, numerator)


def resolve_presented(ring: Ring, gen_twists, relations, numerator) -> FreeResolution:
    """Minimal free resolution of a module presented by explicit relations.

    The module is the free module twisted by gen_twists modulo the span of
    the relation elements.  They are replaced by the elements of their reduced
    basis that the engine marks as a minimal generating set, but the
    presentation must be minimal in the graded sense: a relation with a unit
    entry (a nonzero scalar in some component) would make a generator
    redundant, and it is refused with ValueError.  Eliminate such a
    generator before presenting the module.  numerator is that of the
    module's Hilbert series over (1-t)^n, from t^0 up, which the result's
    alternating Betti sum must equal; so generator twists must be nonnegative.
    """
    gen_twists = tuple(gen_twists)
    if any(t < 0 for t in gen_twists):
        raise ValueError("generator twists must be nonnegative")
    shape = FreeModuleShape(len(gen_twists), gen_twists)
    relations = [z for z in relations if z]
    for z in relations:
        if z.ring != ring or z.shape != shape:
            raise InvariantViolation("relation does not match the presentation")
        if not z.is_homogeneous():
            raise ValueError("resolutions need homogeneous input")
        if any(m == ring.zero_mono for _, m in z.terms):
            raise ValueError("relation has a unit entry: presentation not minimal")
    rels = groebner_basis(relations).minimal_elements() if relations else []
    return _resolve(ring, gen_twists, rels, numerator)
