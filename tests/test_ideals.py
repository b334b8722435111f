"""Ideal operations against set-arithmetic and evaluation oracles."""
import random
from math import comb

import numpy as np
import pytest

from nodal import (
    InvariantViolation,
    Ring,
    determinantal_points,
    groebner,
    ideals,
    linalg,
)
from nodal.ideals import (
    Ideal,
    _at_matrices,
    _charpoly,
    _degree_slice,
    _multiplication_matrices,
    codimension,
    curve_is_squarefree,
    hilbert_numerator,
    ideal_product,
    ideal_sum,
    intersect,
    irrelevant_ideal,
    points_are_reduced,
    quotient,
    saturate,
    scheme_length,
    symbolic_square,
)
from nodal.linalg import PRIME_LIMIT
from nodal.ring import Lex, Polynomial, mono_mul

import oracles


@pytest.fixture
def ring():
    return Ring("x0,x1,x2")


def monomial_ideal(ring, rng, count=3, maxdeg=4):
    gens = []
    for _ in range(count):
        while True:
            m = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
            if any(m):
                break
        gens.append(ring.monomial(m))
    return Ideal(ring, gens)


def lead_set(ideal):
    return set(ideal.gb().lead_monomials())


def point_ideal(ring, pt):
    """Ideal of one projective point, from two independent linear forms."""
    p = ring.p
    a, b, c = pt
    forms = []
    if a:
        inv = pow(a, -1, p)
        forms = [
            ring.poly({(0, 1, 0): 1, (1, 0, 0): (-b * inv) % p}),
            ring.poly({(0, 0, 1): 1, (1, 0, 0): (-c * inv) % p}),
        ]
    elif b:
        inv = pow(b, -1, p)
        forms = [
            ring.poly({(1, 0, 0): 1}),
            ring.poly({(0, 0, 1): 1, (0, 1, 0): (-c * inv) % p}),
        ]
    else:
        forms = [ring.poly({(1, 0, 0): 1}), ring.poly({(0, 1, 0): 1})]
    return Ideal(ring, forms)


class TestBasicOps:
    def test_sum_membership(self, ring):
        a = Ideal.parse(ring, ["x0^2"])
        b = Ideal.parse(ring, ["x1^2"])
        s = ideal_sum(a, b)
        assert s.contains(ring.parse("x0^2 + 3*x1^2"))
        assert not s.contains(ring.parse("x0*x1"))

    def test_product_membership(self, ring):
        a = Ideal.parse(ring, ["x0", "x1"])
        b = Ideal.parse(ring, ["x1", "x2"])
        prod = ideal_product(a, b)
        assert prod.contains(ring.parse("x0*x1 + x1^2"))
        assert not prod.contains(ring.parse("x0"))

    def test_contains_ideal_and_equality(self, ring):
        a = Ideal.parse(ring, ["x0", "x1"])
        b = Ideal.parse(ring, ["x0 + x1", "x0 - x1"])
        assert a.same_ideal(b)
        assert a.contains_ideal(b) and b.contains_ideal(a)

    def test_unit_and_zero(self, ring):
        assert Ideal.parse(ring, ["x0", "x0 + 1"]).is_unit()
        z = Ideal(ring, ())
        assert z.is_zero()
        assert not z.contains(ring.parse("x0"))
        assert z.contains(ring.zero())

    def test_graded_dims_match_span_oracle(self):
        for p in (32003, PRIME_LIMIT - 1):
            ring = Ring("x0,x1,x2", p)
            rng = random.Random(42)
            for _ in range(5):
                gens = [ring.random_form(rng.randrange(1, 4), rng) for _ in range(3)]
                ideal = Ideal(ring, gens)
                for e in range(6):
                    assert ideal.quotient_dim(e) == oracles.quotient_dim(gens, e)

    def test_quotient_dim_reads_leads_once(self, ring, monkeypatch):
        ideal = Ideal(ring, [ring.random_form(d, random.Random(d)) for d in (2, 3, 3)])
        gb = ideal.gb()
        calls = []
        original = Polynomial.lead_monomial

        def counted(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "lead_monomial", counted)
        for _ in range(3):
            for e in range(8):
                ideal.quotient_dim(e)
        assert len(calls) == len(gb)

    def test_second_gb_builds_no_cache_key(self, ring, monkeypatch):
        ideal = Ideal(ring, [ring.random_form(d, random.Random(d)) for d in (2, 3)])
        first = ideal.gb()
        keys = []
        build = groebner._generator_set

        def counted(elements):
            keys.append(elements)
            return build(elements)

        monkeypatch.setattr(groebner, "_generator_set", counted)
        assert ideal.gb() is first
        assert keys == []
        # another order keys another basis, kept beside the first
        lex = ideal.gb(Lex(3))
        assert keys
        keys.clear()
        assert ideal.gb(Lex(3)) is lex and ideal.gb() is first
        assert keys == []

    def test_square_forms_each_pair_once(self, ring):
        a = Ideal.parse(ring, ["x0^2 + x1*x2", "x1^2", "x0*x2 - x2^2"])
        square = ideal_product(a, a)
        assert len(square.gens) == 6
        every_pair = [f * g for f in a.gens for g in a.gens]
        assert groebner._generator_set(square.gens) == groebner._generator_set(
            every_pair
        )

    def test_graded_dims_vanish_in_negative_degrees(self, ring):
        for r in (ring, Ring("x")):
            ideal = Ideal(r, [r.gens()[0] ** 2])
            assert [ideal.graded_dim(e) for e in (-2, -1, 0, 2)] == [0, 0, 0, 1]
            assert r.monomials_of_degree(-1) == []

    def test_minimal_gens(self, ring):
        ideal = Ideal.parse(ring, ["x0", "x1", "x0 + x1", "x0^2"])
        mg = ideal.minimal_gens()
        assert len(mg) == 2


class TestIntersection:
    def test_coordinate_lines(self, ring):
        meet = intersect(Ideal.parse(ring, ["x0"]), Ideal.parse(ring, ["x1"]))
        assert lead_set(meet) == {(1, 1, 0)}

    def test_monomial_oracle_random(self, ring):
        rng = random.Random(7)
        for _ in range(10):
            a = monomial_ideal(ring, rng)
            b = monomial_ideal(ring, rng)
            got = lead_set(intersect(a, b))
            want = oracles.mono_intersect(
                [g.lead_monomial() for g in a.gens],
                [g.lead_monomial() for g in b.gens],
            )
            assert got == want

    def test_principal_coprime(self, ring):
        rng = random.Random(11)
        f = ring.random_form(2, rng)
        g = ring.random_form(3, rng)
        meet = intersect(Ideal(ring, [f]), Ideal(ring, [g]))
        assert meet.same_ideal(Ideal(ring, [f * g]))

    def test_intersection_is_contained_in_both(self, ring):
        rng = random.Random(13)
        a = Ideal(ring, [ring.random_form(2, rng), ring.random_form(2, rng)])
        b = Ideal(ring, [ring.random_form(1, rng)])
        meet = intersect(a, b)
        for g in meet.gens:
            assert a.contains(g)
            assert b.contains(g)

    def test_zero_ideal(self, ring):
        z = Ideal(ring, ())
        assert intersect(Ideal.parse(ring, ["x0"]), z).is_zero()

    def test_slices_obey_inclusion_exclusion(self, ring):
        # dim (S/(a∩b))_e = dim (S/a)_e + dim (S/b)_e - dim (S/(a+b))_e, every
        # term a dense-span rank; with containment in both this pins each slice
        rng = random.Random(17)
        for _ in range(6):
            a = Ideal(
                ring,
                [ring.random_form(rng.randint(1, 3), rng) for _ in range(2)],
            )
            b = Ideal(
                ring,
                [ring.random_form(rng.randint(1, 3), rng) for _ in range(2)],
            )
            meet = intersect(a, b)
            top = max(g.homogeneous_degree() for g in meet.gens) + 1
            for e in range(top + 1):
                want = (
                    oracles.quotient_dim(a.gens, e)
                    + oracles.quotient_dim(b.gens, e)
                    - oracles.quotient_dim(a.gens + b.gens, e)
                )
                assert oracles.quotient_dim(meet.gens, e) == want


def affine_point_ideal(ring, pt):
    """Maximal ideal (x0 - p0, x1 - p1, x2 - p2) of an affine point."""
    return Ideal(ring, [x - ring.constant(c) for x, c in zip(ring.gens(), pt)])


class TestInhomogeneous:
    """Intersections, colons and saturations of affine point ideals."""

    def draws(self, ring, count=5):
        rng = random.Random(37)
        for _ in range(count):
            pts = set()
            while len(pts) < 2:
                pt = tuple(rng.randrange(ring.p) for _ in range(ring.nvars))
                if any(pt):
                    pts.add(pt)
            yield sorted(pts)

    def test_intersection_of_comaximal_points_is_product(self, ring):
        for P, Q in self.draws(ring):
            mp, mq = affine_point_ideal(ring, P), affine_point_ideal(ring, Q)
            meet = intersect(mp, mq)
            assert meet.same_ideal(ideal_product(mp, mq))
            for g in meet.gens:
                assert g.evaluate(P) == 0
                assert g.evaluate(Q) == 0

    def test_origin_component_is_removed(self, ring):
        origin = irrelevant_ideal(ring)
        for P, _ in self.draws(ring):
            mp = affine_point_ideal(ring, P)
            meet = intersect(mp, origin)
            assert saturate(meet).same_ideal(mp)
            assert quotient(meet, origin).same_ideal(mp)


class TestQuotient:
    def test_monomial_colon_oracle(self, ring):
        rng = random.Random(17)
        for _ in range(10):
            a = monomial_ideal(ring, rng)
            while True:
                m = tuple(rng.randrange(3) for _ in range(3))
                if any(m):
                    break
            got = lead_set(quotient(a, ring.monomial(m)))
            want = oracles.mono_colon([g.lead_monomial() for g in a.gens], m)
            assert got == want

    def test_product_colon(self, ring):
        rng = random.Random(19)
        f = ring.random_form(2, rng)
        g = ring.random_form(3, rng)
        back = quotient(Ideal(ring, [f * g]), f)
        assert back.same_ideal(Ideal(ring, [g]))

    def test_self_colon_is_unit(self, ring):
        a = Ideal.parse(ring, ["x0^2", "x1*x2"])
        assert quotient(a, a).is_unit()

    def test_colon_by_ideal(self, ring):
        # (x0*x1, x0*x2) : (x1, x2) = (x0)
        a = Ideal.parse(ring, ["x0*x1", "x0*x2"])
        b = Ideal.parse(ring, ["x1", "x2"])
        assert quotient(a, b).same_ideal(Ideal.parse(ring, ["x0"]))

    def test_colon_by_inhomogeneous_poly(self, ring):
        # (f*g) : f = (g) with f inhomogeneous, homogenized into the engine
        f = ring.parse("x0^2 + x1 + 1")
        g = ring.parse("x1*x2 - x0")
        back = quotient(Ideal(ring, [f * g, f * ring.parse("x2")]), f)
        assert back.same_ideal(Ideal(ring, [g, ring.parse("x2")]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_loop_homogeneous(self, ring, k):
        # a = J * (b + (h)) has a : b containing J, usually strictly
        rng = random.Random(f"colon-h:{k}")
        grew = 0
        for _ in range(4):
            b = _random_forms(ring, rng, k, 1, 2)
            J = _random_forms(ring, rng, 2, 1, 2)
            h = Ideal(ring, [ring.random_form(2, rng)])
            a = ideal_product(J, ideal_sum(b, h))
            got = quotient(a, b)
            assert got.gens == oracles.quotient_by_loop(a, b).gens
            assert got.contains_ideal(J)
            grew += not a.contains_ideal(got)
        assert grew

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_loop_inhomogeneous(self, ring, k):
        # three affine points, b vanishing at the first: a : b drops it
        rng = random.Random(f"colon-i:{k}")
        pts = [tuple(rng.randrange(ring.p) for _ in range(3)) for _ in range(3)]
        mp, mq, mr = (affine_point_ideal(ring, pt) for pt in pts)
        a = intersect(intersect(mp, mq), mr)
        gens = []
        for _ in range(k):
            terms = [g * ring.random_form(rng.randint(0, 1), rng) for g in mp.gens]
            gens.append(sum(terms, ring.zero()))
        got = quotient(a, Ideal(ring, gens))
        assert got.gens == oracles.quotient_by_loop(a, Ideal(ring, gens)).gens
        assert got.same_ideal(intersect(mq, mr))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomial_colon_by_ideal_oracle(self, ring, k):
        # a : (m_1, ..., m_k) is the intersection of the colons a : m_j
        rng = random.Random(f"colon-m:{k}")
        for _ in range(6):
            a = monomial_ideal(ring, rng)
            b = monomial_ideal(ring, rng, count=k, maxdeg=2)
            leads = [g.lead_monomial() for g in a.gens]
            want = None
            for g in b.gens:
                cur = oracles.mono_colon(leads, g.lead_monomial())
                want = cur if want is None else oracles.mono_intersect(want, cur)
            assert lead_set(quotient(a, b)) == want

    def test_colon_by_ideal_is_one_basis(self, ring, monkeypatch):
        rng = random.Random(23)
        b = Ideal(ring, [ring.random_form(d, rng) for d in (1, 2, 2)])
        a = ideal_product(b, Ideal(ring, [ring.random_form(2, rng)]))
        runs = _count_engine_runs(monkeypatch)
        got = quotient(a, b)
        assert len(runs) == 1
        monkeypatch.undo()
        assert got.gens == oracles.quotient_by_loop(a, b).gens


def _random_forms(ring, rng, count, low, high):
    """The ideal of `count` random forms of degrees between low and high."""
    return Ideal(
        ring, [ring.random_form(rng.randint(low, high), rng) for _ in range(count)]
    )


def _count_engine_runs(monkeypatch) -> list:
    """Record every Macaulay engine run from here on."""
    runs = []
    engine = groebner._macaulay_engine

    def counted(*args, **kwargs):
        runs.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(groebner, "_macaulay_engine", counted)
    return runs


class TestHeldBasis:
    """Intersections and colons of homogeneous input hold their basis."""

    def test_held_basis_is_the_computed_basis(self, ring, monkeypatch):
        rng = random.Random(41)
        for _ in range(6):
            a = _random_forms(ring, rng, 2, 1, 3)
            b = _random_forms(ring, rng, 2, 1, 3)
            for held in (intersect(a, b), quotient(ideal_product(a, b), b)):
                runs = _count_engine_runs(monkeypatch)
                gb = held.gb()
                held.minimal_gens()
                assert runs == []
                monkeypatch.undo()
                ring.basis_cache.clear()
                fresh = groebner.groebner_basis(list(gb.elements))
                assert fresh.elements == gb.elements
                assert fresh.minimal == gb.minimal

    def test_minimal_gens_of_a_meet_is_one_run(self, ring, monkeypatch):
        rng = random.Random(43)
        a = Ideal(ring, [ring.random_form(2, rng), ring.random_form(3, rng)])
        b = Ideal(ring, [ring.random_form(1, rng), ring.random_form(2, rng)])
        runs = _count_engine_runs(monkeypatch)
        intersect(a, b).minimal_gens()
        assert len(runs) == 1

    def test_inhomogeneous_rows_homogeneous_meet(self, ring):
        # the rows are inhomogeneous, so the basis is unmarked and not held;
        # the meet (x0) is homogeneous and finds its own marked basis
        a = Ideal.parse(ring, ["x0", "x1 + 1"])
        x0 = ring.parse("x0")
        assert intersect(a, Ideal(ring, [x0])).minimal_gens() == [x0]


class TestSaturation:
    def test_monomial_oracle_random(self, ring):
        rng = random.Random(29)
        for _ in range(10):
            a = monomial_ideal(ring, rng)
            got = lead_set(saturate(a))
            want = oracles.mono_sat_irrelevant(
                [g.lead_monomial() for g in a.gens], 3
            )
            assert want == got

    def test_already_saturated(self, ring):
        a = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        assert saturate(a).same_ideal(a)

    def test_primary_junk_removed(self, ring):
        # a fat point (x1, x2)^3 with an irrelevant-primary component mixed in
        a = Ideal.parse(ring, ["x1^3", "x2^3", "x1*x2^2", "x1^2*x2"])
        sat = saturate(ideal_product(a, irrelevant_ideal(ring)))
        assert lead_set(sat) == {(0, 3, 0), (0, 0, 3), (0, 1, 2), (0, 2, 1)}
        # saturation against the independent colon route: stable under colon
        assert quotient(sat, irrelevant_ideal(ring)).same_ideal(sat)

    def test_agrees_with_iterated_colon_route(self, ring):
        rng = random.Random(31)
        for _ in range(4):
            pts = [oracles.random_projective_point(ring, rng) for _ in range(3)]
            prod = None
            for pt in pts:
                cur = point_ideal(ring, pt)
                prod = cur if prod is None else ideal_product(prod, cur)
            sat = saturate(prod)
            # the saturation is colon-stable, checked by the colon by m in
            # one module basis (quotient), not by the divide-out route
            assert quotient(sat, irrelevant_ideal(ring)).same_ideal(sat)
            assert sat.contains_ideal(prod)
            # and it is the full ideal of the points: the intersection
            meet = None
            for pt in pts:
                cur = point_ideal(ring, pt)
                meet = cur if meet is None else intersect(meet, cur)
            assert sat.same_ideal(meet)

    def test_saturate_by_single_poly_ideal(self, ring):
        # (x0^2*x1, x0*x2) : x0^inf = (x1, x2) ... saturating by a principal ideal
        a = Ideal.parse(ring, ["x0^2*x1", "x0*x2"])
        sat = saturate(a, Ideal.parse(ring, ["x0"]))
        assert sat.same_ideal(Ideal.parse(ring, ["x1", "x2"]))

    def test_unit_when_power_inside(self, ring):
        a = Ideal.parse(ring, ["x0^3", "x1^2", "x2^4"])
        assert saturate(a).is_unit()

    def test_resaturating_computes_no_basis(self, ring, monkeypatch):
        # generic points: x2, tried first, strips nothing, so the saturation
        # returns the grevlex basis it read; a redundant generator keeps that
        # basis apart from the input generators
        meet = _random_points_ideal(ring, random.Random(59), 4)
        sat = saturate(Ideal(ring, meet.gens + (meet.gens[0] * ring.gen(0),)))
        runs = []
        engine = groebner.macaulay_gb

        def counted(*args, **kwargs):
            runs.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(groebner, "macaulay_gb", counted)
        again = saturate(sat)
        assert runs == []
        assert again.same_ideal(meet)

    def test_saturated_ideal_holding_its_basis_runs_no_engine(self, ring, monkeypatch):
        # generic points: the grevlex order has x2 cheapest, so the held basis
        # is the one the first divide-out reads, and nothing divides out
        meet = _random_points_ideal(ring, random.Random(61), 5)
        meet.gb()
        runs = _count_engine_runs(monkeypatch)
        sat = saturate(meet)
        assert runs == []
        monkeypatch.undo()
        assert sat.same_ideal(meet)

    def test_settled_by_the_last_variable_is_one_engine_run(self, ring, monkeypatch):
        # junk on generic points: the divide-out by x2 reads the held grevlex
        # basis and settles the saturation; the only run is the colon's basis
        pts = _random_points_ideal(ring, random.Random(67), 4)
        junk = ideal_product(pts, irrelevant_ideal(ring))
        junk.gb()
        divided, meets = self._count_routes(monkeypatch)
        runs = _count_engine_runs(monkeypatch)
        sat = saturate(junk)
        assert len(runs) <= 1
        assert divided == [2]
        assert meets == []
        monkeypatch.undo()
        assert sat.same_ideal(pts)

    @staticmethod
    def _count_routes(monkeypatch):
        divided, meets = [], []
        divide, meet = ideals._divide_out, ideals.intersect

        def dividing(gb, var):
            divided.append(var)
            return divide(gb, var)

        def meeting(*args, **kwargs):
            meets.append(args)
            return meet(*args, **kwargs)

        monkeypatch.setattr(ideals, "_divide_out", dividing)
        monkeypatch.setattr(ideals, "intersect", meeting)
        return divided, meets

    def _points_with_junk(self, ring, pts):
        meet = None
        for pt in pts:
            cur = point_ideal(ring, pt)
            meet = cur if meet is None else intersect(meet, cur)
        return meet, ideal_product(meet, irrelevant_ideal(ring))

    def test_point_on_one_line_settles_at_the_next_variable(self, ring, monkeypatch):
        # the colon by x2 loses the point on x2 = 0, so the Hilbert
        # polynomial drops; the colon by x0 keeps it and is the saturation
        pts, junk = self._points_with_junk(ring, [(1, 2, 3), (1, 5, 7), (1, 2, 0)])
        divided, meets = self._count_routes(monkeypatch)
        sat = saturate(junk)
        assert divided == [2, 0]
        assert meets == []
        assert sat.same_ideal(pts)

    def test_points_on_every_line_fall_back(self, ring, monkeypatch):
        pts, junk = self._points_with_junk(ring, [(0, 1, 2), (1, 0, 3), (1, 4, 0)])
        divided, meets = self._count_routes(monkeypatch)
        sat = saturate(junk)
        assert divided == [2, 0, 1]
        assert len(meets) == 2
        assert sat.same_ideal(pts)


class TestHilbertNumerator:
    @staticmethod
    def _series(numerator, n, degree):
        return sum(
            c * comb(degree - k + n - 1, n - 1)
            for k, c in enumerate(numerator[: degree + 1])
        )

    def test_matches_brute_force_counts(self):
        rng = random.Random(23)
        cases = [
            (3, []),
            (3, [(0, 0, 0)]),
            (3, [(0, 0, 0), (1, 2, 0)]),
            (3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
            (2, [(3, 0), (0, 2), (5, 0)]),
            (1, [(4,)]),
        ]
        for _ in range(40):
            n = rng.randrange(1, 5)
            gens = [
                tuple(rng.randrange(4) for _ in range(n))
                for _ in range(rng.randrange(1, 7))
            ]
            cases.append((n, gens))
        for n, gens in cases:
            numerator = hilbert_numerator(gens)
            assert not numerator or numerator[-1] != 0
            # N has degree at most that of the lcm of the generators
            for e in range(3 * n + 3):
                want = oracles.mono_quotient_dim(gens, n, e)
                assert self._series(numerator, n, e) == want, (gens, e)

    def test_codimension_matches_variable_cover(self):
        # the multiplicity of t = 1 as a root of N against the smallest cover
        # of the leads by variables, the zero and the unit ideal included
        rng = random.Random(29)
        cases = [(n, gens) for n in (2, 3, 4) for gens in ([], [(0,) * n])]
        for _ in range(40):
            n = rng.randrange(2, 5)
            gens = [
                tuple(rng.randrange(3) for _ in range(n))
                for _ in range(rng.randrange(1, 6))
            ]
            cases.append((n, gens))
        for n, gens in cases:
            ring = Ring(",".join(f"x{i}" for i in range(n)))
            ideal = Ideal(ring, [Polynomial(ring, {m: 1}) for m in gens])
            want = oracles.codimension_by_cover(gens, n)
            assert codimension(ideal) == want, gens
            assert ideals._root_multiplicity(hilbert_numerator(gens), n + 1) == want

    def test_known_values(self):
        assert hilbert_numerator([]) == (1,)
        assert hilbert_numerator([(0, 0, 0)]) == ()
        # (1 - t^2)(1 - t^3), and a redundant generator changes nothing
        assert hilbert_numerator([(2, 0), (0, 3), (2, 1)]) == (1, 0, -1, -1, 0, 1)


class TestCodimension:
    def test_known_values(self, ring):
        assert codimension(Ideal(ring, ())) == 0
        assert codimension(Ideal.parse(ring, ["x0"])) == 1
        assert codimension(Ideal.parse(ring, ["x0*x1"])) == 1
        assert codimension(Ideal.parse(ring, ["x0", "x1"])) == 2
        assert codimension(Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])) == 2
        assert codimension(irrelevant_ideal(ring)) == 3
        assert codimension(Ideal.parse(ring, ["x0", "x0 + 1"])) == 4

    def test_random_complete_intersections(self, ring):
        rng = random.Random(37)
        f = ring.random_form(2, rng)
        g = ring.random_form(3, rng)
        assert codimension(Ideal(ring, [f, g])) == 2


class TestSquarefree:
    def test_triangle_is_squarefree(self, ring):
        assert curve_is_squarefree(ring.parse("x0*x1*x2"))

    def test_double_line_is_not(self, ring):
        assert not curve_is_squarefree(ring.parse("x0^2*x1"))

    def test_smooth_conic(self, ring):
        assert curve_is_squarefree(ring.parse("x0*x2 - x1^2"))

    def test_double_conic(self, ring):
        f = ring.parse("x0*x2 - x1^2")
        assert not curve_is_squarefree(f * f)

    def test_random_products_of_lines(self, ring):
        rng = random.Random(41)
        lines = [ring.random_linear(rng) for _ in range(4)]
        prod = ring.one()
        for l in lines:
            prod = prod * l
        assert curve_is_squarefree(prod)
        assert not curve_is_squarefree(prod * lines[0])


class TestFiniteSchemes:
    def test_scheme_length_triangle(self, ring):
        a = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        assert scheme_length(a) == 3

    def test_scheme_length_fat_point(self, ring):
        a = Ideal.parse(ring, ["x1^2", "x1*x2", "x2^2"])
        assert scheme_length(a) == 3

    def test_scheme_length_of_a_curve_refused(self, ring):
        # the function of a conic, 2e + 1, never repeats; the scan stops at
        # degree len(N) + 1 = 4
        with pytest.raises(InvariantViolation, match="did not stabilize"):
            scheme_length(Ideal.parse(ring, ["x0^2 + x1*x2"]))

    def test_scheme_length_one_point(self, ring):
        assert scheme_length(Ideal.parse(ring, ["x1", "x2"])) == 1

    def test_symbolic_square_of_triangle(self, ring):
        a = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        sq = symbolic_square(a)
        # the product of the three lines vanishes doubly at every vertex
        assert sq.contains(ring.parse("x0*x1*x2"))
        degs = sorted(g.homogeneous_degree() for g in sq.minimal_gens())
        assert degs[0] == 3
        # dims agree with the double-vanishing evaluation oracle
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for e in range(3, 7):
            assert (
                sq.graded_dim(e)
                == oracles.double_vanishing_dim(ring, pts, e)
            )

    def test_symbolic_square_random_points(self, ring):
        rng = random.Random(43)
        pts = [oracles.random_projective_point(ring, rng) for _ in range(4)]
        meet = None
        for pt in pts:
            cur = point_ideal(ring, pt)
            meet = cur if meet is None else intersect(meet, cur)
        sq = symbolic_square(meet)
        for e in range(2, 8):
            assert sq.graded_dim(e) == oracles.double_vanishing_dim(ring, pts, e)


def _projection_rows_reference(l1, l2, delta, monos):
    """Rows l1^k * l2^(delta-k) from Polynomial products, the loop the
    projection certificate used before its numpy recurrence."""
    ring = l1.ring
    col = {m: i for i, m in enumerate(monos)}
    pow1 = [ring.one()]
    pow2 = [ring.one()]
    for _k in range(delta):
        pow1.append(pow1[-1] * l1)
        pow2.append(pow2[-1] * l2)
    wrows = np.zeros((delta + 1, len(monos)), dtype=np.int64)
    for k in range(delta + 1):
        w = pow1[k] * pow2[delta - k]
        for m, c in w.terms.items():
            wrows[k, col[m]] = c
    return wrows


class TestProjectionRows:
    @pytest.mark.parametrize("p", [32003, PRIME_LIMIT - 1])
    def test_matches_polynomial_products(self, p):
        ring = Ring("x0,x1,x2", p)
        rng = random.Random(53)
        pairs = [
            (ring.random_linear(rng), ring.random_linear(rng)),
            # zero coefficients in every shift direction, and p - 1
            (ring.parse("x0"), ring.parse("x1 + x2")),
            (ring.parse("x2"), ring.parse("x0 - x1")),
        ]
        for l1, l2 in pairs:
            lin = oracles.linear_coefficients(l1, l2)
            for delta in (1, 2, 19, 36):
                monos = ring.monomials_of_degree(delta)
                got = oracles.projection_rows(lin, delta, p, monos)
                want = _projection_rows_reference(l1, l2, delta, monos)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (str(l1), str(l2), delta)


def _slice_rows_reference(gb, degree):
    """Dense degree slice by a Python scan over monomials and leads, the
    builder that the certificate and graded_basis used before the numpy
    lead map."""
    ring = gb.ring
    monos = ring.monomials_of_degree(degree)
    col = {m: i for i, m in enumerate(monos)}
    leads = gb.lead_monomials()
    rows = []
    for m in monos:
        hit = None
        for g, lm in zip(gb.elements, leads):
            q = tuple(a - b for a, b in zip(m, lm))
            if all(e >= 0 for e in q):
                hit = (g, q)
                break
        if hit is None:
            continue
        g, q = hit
        row = np.zeros(len(monos), dtype=np.int64)
        for mm, c in g.terms.items():
            row[col[mono_mul(mm, q)]] = c
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(monos))


def _reduced_projection_reference(gb, degree, W):
    """Rows of W reduced modulo the degree slice through a dense rref, the
    route the projection certificate took before forward substitution."""
    p = gb.ring.p
    R, pivots = linalg.rref(_slice_rows_reference(gb, degree), p)
    return oracles.reduce_rows(R, pivots, W, p), pivots


def _points_ideal(ring, pts):
    meet = None
    for pt in pts:
        cur = point_ideal(ring, pt)
        meet = cur if meet is None else intersect(meet, cur)
    return meet


def _random_points_ideal(ring, rng, count):
    return _points_ideal(ring, [oracles.random_projective_point(ring, rng) for _ in range(count)])


class TestDegreeSlice:
    """The echelon slice and its forward substitution against the rref route."""

    def schemes(self, ring):
        yield Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        yield _random_points_ideal(ring, random.Random(47), 5)
        yield symbolic_square(Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"]))
        yield determinantal_points(2, ring=ring)

    @pytest.mark.parametrize("p", [32003, PRIME_LIMIT - 1])
    def test_matches_rref_route(self, p):
        ring = Ring("x0,x1,x2", p)
        rng = random.Random(61)
        for ideal in self.schemes(ring):
            gb = ideal.gb()
            delta = scheme_length(ideal)
            cols, vals = _degree_slice(gb, delta)
            monos = ring.monomials_of_degree(delta)
            dense = np.zeros((len(cols), len(monos) + 1), dtype=np.int64)
            dense[np.arange(len(cols))[:, None], cols] = vals
            assert np.array_equal(dense[:, :-1], _slice_rows_reference(gb, delta))
            # one random projection block, and l1 = x0 + x2, l2 = (p-1)*x1
            lins = [
                np.array(
                    [[rng.randrange(p) for _ in range(3)] for _ in range(2)],
                    dtype=np.int64,
                ),
                np.array([[1, 0, 1], [0, p - 1, 0]], dtype=np.int64),
            ]
            for lin in lins:
                W = oracles.projection_rows(lin, delta, p, monos)
                want, pivots = _reduced_projection_reference(gb, delta, W)
                got = linalg.reduce_mod_echelon(cols, vals, W, p)
                assert cols[:, 0].tolist() == pivots
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (str(ideal), delta)

    def test_graded_basis_is_rref_of_reference_slice(self, ring):
        ideal = _random_points_ideal(ring, random.Random(67), 5)
        for degree in range(6):
            monos = ring.monomials_of_degree(degree)
            R, _ = linalg.rref(_slice_rows_reference(ideal.gb(), degree), ring.p)
            want = [
                ring.poly({monos[i]: int(v) for i, v in enumerate(row) if v})
                for row in R
            ]
            assert ideal.graded_basis(degree) == want

    def test_refuses_a_basis_in_another_order(self, ring):
        # a lex basis has leads that are not the grevlex-first terms, so the
        # rows are not in echelon form over grevlex columns
        ideal = _random_points_ideal(ring, random.Random(71), 5)
        gb = ideal.gb(Lex(3))
        with pytest.raises(InvariantViolation):
            _degree_slice(gb, 5)
        _degree_slice(ideal.gb(), 5)

    def test_refuses_an_inhomogeneous_basis(self, ring):
        ideal = Ideal.parse(ring, ["x0*x1 - 1", "x2"])
        with pytest.raises(ValueError):
            ideal.graded_basis(2)


class TestReducedness:
    def test_triangle_reduced(self, ring):
        a = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        rep = points_are_reduced(a)
        assert rep.reduced
        assert rep.length == 3
        assert rep.distinct_points == 3

    def test_random_points_reduced(self, ring):
        rng = random.Random(47)
        pts = [oracles.random_projective_point(ring, rng) for _ in range(5)]
        meet = None
        for pt in pts:
            cur = point_ideal(ring, pt)
            meet = cur if meet is None else intersect(meet, cur)
        rep = points_are_reduced(meet)
        assert rep.reduced
        assert rep.distinct_points == 5

    def test_fat_point_not_reduced(self, ring):
        a = Ideal.parse(ring, ["x1^2", "x1*x2", "x2^2"])
        rep = points_are_reduced(a)
        assert not rep.reduced
        assert rep.length == 3
        assert rep.distinct_points is None

    def test_curvilinear_double_point_not_reduced(self, ring):
        a = Ideal.parse(ring, ["x1", "x2^2"])
        rep = points_are_reduced(a)
        assert not rep.reduced
        assert rep.length == 2

    def test_double_structure_on_triangle_not_reduced(self, ring):
        a = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        rep = points_are_reduced(symbolic_square(a))
        assert not rep.reduced
        assert rep.length == 9

    def test_rejects_a_curve(self, ring):
        with pytest.raises(ValueError):
            points_are_reduced(Ideal.parse(ring, ["x0*x1*x2"]))


def _det(M, p):
    """Determinant mod p by Gaussian elimination on Python integers."""
    M = [[int(x) % p for x in row] for row in M]
    out = 1
    for c in range(len(M)):
        piv = next((r for r in range(c, len(M)) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            out = -out
        out = out * M[c][c] % p
        inv = pow(M[c][c], -1, p)
        for r in range(c + 1, len(M)):
            f = M[r][c] * inv % p
            M[r] = [(a - f * b) % p for a, b in zip(M[r], M[c])]
    return out % p


class TestCharpoly:
    @pytest.mark.parametrize("p", [7, 32003, PRIME_LIMIT - 1])
    def test_matches_determinants(self, p):
        # dense and sparse matrices, so the Hessenberg reduction swaps rows
        # and meets zero subdiagonals; chi(t) = det(t - T) at several t
        rng = random.Random(p)
        for n in (1, 2, 3, 6, 11):
            for density in (1.0, 0.3):
                T = np.array(
                    [
                        [rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)
                    ],
                    dtype=np.int64,
                )
                chi = _charpoly(T, p)
                assert len(chi) == n + 1 and chi[-1] == 1
                for t in (0, 1, rng.randrange(p), p - 1):
                    value = sum(c * pow(t, k, p) for k, c in enumerate(chi)) % p
                    assert value == _det(t * np.eye(n, dtype=np.int64) - T, p)


class TestMultiplicationMatrices:
    def test_rows_are_normal_forms(self, ring):
        # 5 general points: HF = 1, 3, 5, so r = 2 and X_i maps degree 2 to 3
        ideal = _random_points_ideal(ring, random.Random(47), 5)
        gb = ideal.gb()
        leads = lead_set(ideal)

        def standard(degree):
            return [
                m for m in ring.monomials_of_degree(degree)
                if not any(all(a >= b for a, b in zip(m, g)) for g in leads)
            ]

        rows, cols = standard(2), standard(3)
        X = _multiplication_matrices(gb, 2)
        assert X.shape == (3, 5, 5)
        for i in range(3):
            for j, m in enumerate(rows):
                nf = groebner.normal_form(ring.gen(i) * ring.monomial(m), gb)
                assert X[i, j].tolist() == [nf.terms.get(c, 0) for c in cols]

    def test_linear_form_exact_at_the_top_prime(self):
        # three products of residues near 2^31 sum past 2^63 unless each is
        # reduced first
        p = PRIME_LIMIT - 1
        X = np.full((3, 2, 2), p - 1, dtype=np.int64)
        w = np.full(3, p - 1, dtype=np.int64)
        assert _at_matrices(w, X, p).tolist() == [[3, 3], [3, 3]]


def _fattened(ring, pt, kind):
    """The fat point m_pt^2 (length 3) or a double point (length 2) at pt."""
    point = point_ideal(ring, pt)
    if kind == "fat":
        return ideal_product(point, point)
    l1, l2 = point.gens
    return Ideal(ring, [l1, l2 * l2])


def _agreement_cases(ring):
    """Reduced sets of 1-6 random points, their symbolic squares, each set
    of two or more with one point made fat or doubled, and the fixed cases
    of TestReducedness."""
    rng = random.Random(ring.p % 1000 + 7)
    for count in range(1, 7):
        pts = [oracles.random_projective_point(ring, rng) for _ in range(count)]
        meet = _points_ideal(ring, pts)
        yield meet
        yield symbolic_square(meet)
        if count > 1:
            for kind in ("fat", "double"):
                rest = _points_ideal(ring, pts[1:])
                yield intersect(rest, _fattened(ring, pts[0], kind))
    yield Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
    yield _random_points_ideal(ring, random.Random(47), 5)
    yield Ideal.parse(ring, ["x1^2", "x1*x2", "x2^2"])
    yield Ideal.parse(ring, ["x1", "x2^2"])
    yield symbolic_square(Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"]))


class TestCertificateAgreement:
    """points_are_reduced against the projection certificate it replaced."""

    @pytest.mark.parametrize("p", [32003, 7, 11, PRIME_LIMIT - 1])
    def test_same_report_as_projection(self, p):
        # at 2^31 - 1 a product of residues summed before its reduction
        # overflows int64 and certifies nothing
        ring = Ring("x0,x1,x2", p)
        verdicts = set()
        for ideal in _agreement_cases(ring):
            for seed in range(3):
                got = points_are_reduced(ideal, seed=seed)
                want = oracles.projection_certificate(ideal, seed=seed)
                assert got.as_dict() == want.as_dict(), (str(ideal), seed)
                verdicts.add(got.reduced)
        assert verdicts == {True, False}

    def test_reads_degree_r_plus_one_only(self, ring, monkeypatch):
        # delta = 5 general points: HF = 1, 3, 5, so r = 2, and the
        # certificate slices the ideal in degree 3, never in degree delta
        ideal = _random_points_ideal(ring, random.Random(47), 5)
        degrees = []
        real = ideals._degree_slice

        def spy(gb, degree):
            degrees.append(degree)
            return real(gb, degree)

        def refused(*args):
            raise AssertionError("the certificate takes no nullspace")

        monkeypatch.setattr(ideals, "_degree_slice", spy)
        monkeypatch.setattr(linalg, "nullspace", refused)
        assert points_are_reduced(ideal).reduced
        assert degrees == [3]
