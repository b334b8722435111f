"""Minimal graded free resolutions by iterated syzygies.

Each level takes syzygies of a minimal generating set.  A syzygy of
minimal generators cannot carry a unit coordinate (that would make one
generator redundant), so the chain is minimal level by level.  A
constant-cancellation sweep runs anyway as a safety net, and every
constructed resolution is verified on the spot: consecutive maps compose
to zero, entry degrees match the twist bookkeeping, no nonzero scalar
entries survive, and the alternating sum of free-module dimensions
reproduces an independently counted Hilbert function on a window past the
largest twist.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvariantViolation
from .groebner import (
    DEFAULT_DEGREE_CAP,
    FreeModuleShape,
    minimal_module_generators,
    syzygy_generators,
)
from .ideals import Ideal
from .ring import Polynomial, Ring

Matrix = tuple[tuple[Polynomial, ...], ...]


def free_graded_dim(nvars: int, twists, e: int) -> int:
    """Dimension of the degree-e piece of ⊕ S(-t)."""
    return sum(comb(e - t + nvars - 1, nvars - 1) for t in twists if e >= t)


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

    def hilbert_alternating(self, e: int) -> int:
        n = self.ring.nvars
        total = 0
        for i, level in enumerate(self.twists):
            total += (-1) ** i * free_graded_dim(n, level, e)
        return total

    def max_twist(self) -> int:
        return max((t for level in self.twists for t in level), default=0)


def _compose_entry(ring: Ring, a: Matrix, b: Matrix, r: int, c: int, rank: int):
    s = ring.zero()
    for k in range(rank):
        s = s + a[r][k] * b[k][c]
    return s


def _verify_resolution(res: FreeResolution, hf) -> None:
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
    for e in range(res.max_twist() + 3):
        if res.hilbert_alternating(e) != hf(e):
            raise InvariantViolation("alternating Hilbert sum disagrees with ideal count")


def _cancel_constants(ring: Ring, twists: list, maps: list) -> tuple[list, list]:
    """Split off trivial S(-t) = S(-t) summands wherever a map entry is a
    nonzero scalar.  Row and column operations keep both neighbour maps in
    step, so the result is the same complex minus a split-exact piece."""
    mats = [[list(row) for row in m] for m in maps]
    tw = [list(level) for level in twists]
    p = ring.p

    def find_constant():
        for i, m in enumerate(mats):
            for r, row in enumerate(m):
                for c, f in enumerate(row):
                    if f and f.degree() == 0:
                        return i, r, c
        return None

    while True:
        spot = find_constant()
        if spot is None:
            break
        i, r, c = spot
        m = mats[i]
        u = m[r][c].terms[ring.zero_mono]
        uinv = pow(u, -1, p)
        for c2 in range(len(m[r])):
            if c2 == c or not m[r][c2]:
                continue
            lam = m[r][c2] * uinv
            for r2 in range(len(m)):
                m[r2][c2] = m[r2][c2] - lam * m[r2][c]
            if i + 1 < len(mats):
                nxt = mats[i + 1]
                for c3 in range(len(nxt[c])):
                    nxt[c][c3] = nxt[c][c3] + lam * nxt[c2][c3]
        for r2 in range(len(m)):
            if r2 == r or not m[r2][c]:
                continue
            mu = m[r2][c] * uinv
            for c2 in range(len(m[r2])):
                m[r2][c2] = m[r2][c2] - mu * m[r][c2]
            if i > 0:
                prv = mats[i - 1]
                for r3 in range(len(prv)):
                    prv[r3][r] = prv[r3][r] + mu * prv[r3][r2]
        for row in m:
            del row[c]
        del m[r]
        del tw[i + 1][c]
        del tw[i][r]
        if i + 1 < len(mats):
            del mats[i + 1][c]
        if i > 0:
            for row in mats[i - 1]:
                del row[r]
    while len(tw) > 1 and not tw[-1]:
        tw.pop()
        mats.pop()
    return tw, mats


def _freeze(ring: Ring, twists: list, maps: list, hf) -> FreeResolution:
    res = FreeResolution(
        ring,
        tuple(tuple(level) for level in twists),
        tuple(tuple(tuple(row) for row in m) for m in maps),
    )
    _verify_resolution(res, hf)
    return res


def _extend_by_syzygies(current, twists: list, maps: list, cap: int) -> None:
    ring = current[0].ring
    for _ in range(ring.nvars + 1):
        syz = syzygy_generators(current, cap=cap)
        if not syz:
            return
        rank = len(current)
        twists.append(tuple(z.module_degree() for z in syz))
        maps.append([[z.component(r) for z in syz] for r in range(rank)])
        current = syz
    raise InvariantViolation("resolution did not terminate")


def resolve_quotient(ideal: Ideal, cap: int = DEFAULT_DEGREE_CAP) -> FreeResolution:
    """Minimal free resolution of S/I."""
    ring = ideal.ring
    if ideal.is_zero():
        return _freeze(ring, [(0,)], [], lambda e: free_graded_dim(ring.nvars, (0,), e))
    if ideal.is_unit():
        return _freeze(ring, [()], [], lambda e: 0)
    gens = ideal.minimal_gens()
    twists: list = [(0,), tuple(g.homogeneous_degree() for g in gens)]
    maps: list = [[list(gens)]]
    _extend_by_syzygies(gens, twists, maps, cap)
    tw, ms = _cancel_constants(ring, twists, maps)
    return _freeze(ring, tw, ms, ideal.quotient_dim)


def resolve_ideal(ideal: Ideal, cap: int = DEFAULT_DEGREE_CAP) -> FreeResolution:
    """Minimal free resolution of the ideal as a graded module."""
    ring = ideal.ring
    if ideal.is_zero():
        return _freeze(ring, [()], [], lambda e: 0)
    gens = ideal.minimal_gens()
    twists = [tuple(g.homogeneous_degree() for g in gens)]
    maps: list = []
    _extend_by_syzygies(gens, twists, maps, cap)
    tw, ms = _cancel_constants(ring, twists, maps)
    return _freeze(ring, tw, ms, ideal.graded_dim)


def resolve_presented(
    ring: Ring, gen_twists, relations, hf, cap: int = DEFAULT_DEGREE_CAP
) -> FreeResolution:
    """Minimal free resolution of a module presented by explicit relations.

    The module is the free module twisted by gen_twists modulo the span of
    the relation elements.  The presentation need not be minimal: constant
    relation entries are cancelled away, so quotients like a product of
    hypersurface rings modulo a diagonally embedded subring come out with
    the spare generator already eliminated.  hf must supply the Hilbert
    function of the presented module; it is checked against the result.
    """
    gen_twists = tuple(gen_twists)
    shape = FreeModuleShape(len(gen_twists), gen_twists)
    relations = [z for z in relations if z]
    for z in relations:
        if z.ring != ring or z.shape != shape:
            raise InvariantViolation("relation does not match the presentation")
        if not z.is_homogeneous():
            raise ValueError("resolutions need homogeneous input")
    rel = minimal_module_generators(relations)
    twists: list = [gen_twists]
    maps: list = []
    if rel:
        twists.append(tuple(z.module_degree() for z in rel))
        maps.append(
            [[z.component(r) for z in rel] for r in range(len(gen_twists))]
        )
        _extend_by_syzygies(rel, twists, maps, cap)
    tw, ms = _cancel_constants(ring, twists, maps)
    return _freeze(ring, tw, ms, hf)
