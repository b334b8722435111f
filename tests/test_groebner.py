"""Groebner engines, normal forms, syzygies, minimal generators."""
import gc
import random
import weakref
from collections import Counter

import pytest

from nodal import (
    DegreeCapExceeded,
    ExponentLimitError,
    FreeModuleShape,
    Grevlex,
    Ideal,
    Lex,
    ModuleElement,
    Polynomial,
    PositionOverTerm,
    Ring,
    RingMismatchError,
    groebner_basis,
    macaulay_gb,
    normal_form,
    syzygy_generators,
)
from nodal import groebner
from nodal.groebner import BASIS_CACHE_SIZE, RingOrderAdapter, macaulay_module_gb

import oracles


@pytest.fixture
def ring():
    return Ring("x0,x1,x2")


def random_homogeneous_ideal(ring, rng, count=3, maxdeg=3):
    return [ring.random_form(rng.randrange(1, maxdeg + 1), rng) for _ in range(count)]


def random_inhomogeneous(ring, rng, maxdeg, count=3):
    """A sum of up to count random terms of degree at most maxdeg."""
    terms = {}
    for _ in range(count):
        m = rng.choice(ring.monomials_of_degree(rng.randrange(maxdeg + 1)))
        terms[m] = rng.randrange(1, ring.p)
    return ring.poly(terms)


MODULE_SHAPE = FreeModuleShape(2, (0, 1))


def random_homogeneous_module(ring, rng, count=3):
    """Homogeneous elements of degree 2 or 3 in the rank-2 module twisted (0, 1)."""
    gens = []
    for _ in range(count):
        d = rng.randrange(2, 4)
        comps = [ring.random_form(d - t, rng) for t in MODULE_SHAPE.twists]
        gens.append(ModuleElement.from_polynomials(MODULE_SHAPE, comps))
    return gens


class TestKnownBases:
    def test_two_variables(self, ring):
        gb = groebner_basis([ring.parse("x0"), ring.parse("x1")])
        assert [str(g) for g in gb.elements] == ["x1", "x0"]

    def test_classic_inhomogeneous(self):
        # Cox-Little-O'Shea style warhorse in two variables
        r = Ring("x,y")
        gens = [r.parse("x^3 - 2*x*y"), r.parse("x^2*y - 2*y^2 + x")]
        for gb in (groebner_basis(gens), oracles.buchberger(gens)):
            leads = {g.lead_monomial(gb.order) for g in gb.elements}
            assert leads == {(2, 0), (1, 1), (0, 2)}

    def test_saturated_triangle_style(self, ring):
        gb = groebner_basis([ring.parse("x0^2"), ring.parse("x0*x1 + x1^2")])
        assert [str(g) for g in gb.elements] == ["x0*x1 + x1^2", "x0^2", "x1^3"]

    def test_principal_ideal(self, ring):
        f = ring.parse("x0^2 + x1*x2")
        gb = groebner_basis([f, ring.parse("3") * f])
        assert list(gb.elements) == [f]

    def test_unit_ideal(self, ring):
        gb = groebner_basis([ring.parse("x0"), ring.parse("x0 + 1")])
        assert list(gb.elements) == [ring.one()]

    def test_zero_generators_dropped(self, ring):
        for engine in (groebner_basis, oracles.buchberger):
            gb = engine([ring.zero(), ring.parse("x0")])
            assert list(gb.elements) == [ring.parse("x0")]
            gb = engine([ring.zero(), ring.parse("x0 + 1")])
            assert list(gb.elements) == [ring.parse("x0 + 1")]

    def test_all_zero_input(self, ring):
        for engine in (groebner_basis, oracles.buchberger):
            gb = engine([ring.zero()])
            assert len(gb) == 0
            assert normal_form(ring.parse("x1"), gb) == ring.parse("x1")
            with pytest.raises(ValueError):
                engine([])


class TestEngineAgreement:
    def test_engines_agree_random(self, ring):
        rng = random.Random(1234)
        for _ in range(15):
            gens = random_homogeneous_ideal(ring, rng)
            a = macaulay_gb(gens)
            b = oracles.buchberger(gens)
            assert list(a.elements) == list(b.elements)

    def test_engines_agree_lex(self, ring):
        rng = random.Random(4321)
        order = Lex(3)
        for _ in range(5):
            gens = random_homogeneous_ideal(ring, rng, count=2)
            a = macaulay_gb(gens, order=order)
            b = oracles.buchberger(gens, order=order)
            assert list(a.elements) == list(b.elements)

    def test_module_engines_agree(self, ring):
        rng = random.Random(2121)
        cases = [random_homogeneous_module(ring, rng) for _ in range(8)]
        # coprime leads in one component: their S-pair does not reduce to
        # zero in a module, so neither engine may skip it
        x0, x1, x2 = ring.gens()
        cases.append([
            ModuleElement.from_polynomials(MODULE_SHAPE, [x0 * x0, x1]),
            ModuleElement.from_polynomials(MODULE_SHAPE, [x1 * x1, x2]),
        ])
        plain = FreeModuleShape.plain(2)
        cases.append([
            ModuleElement.from_polynomials(plain, [x0, x1]),
            ModuleElement.from_polynomials(plain, [x1, x0]),
        ])
        for gens in cases:
            a = macaulay_module_gb(gens)
            b = oracles.buchberger(gens)
            assert list(a.elements) == list(b.elements)

    def test_gb_is_sound_random(self, ring):
        rng = random.Random(99)
        for _ in range(10):
            gens = random_homogeneous_ideal(ring, rng)
            gb = groebner_basis(gens)
            # every basis element lies in the span of the generators
            for g in gb.elements:
                assert oracles.member(g, gens)
            # every generator reduces to zero
            for f in gens:
                assert not normal_form(f, gb)

    def test_quotient_dims_match_lead_ideal(self, ring):
        # dim of a quotient slice equals the count of standard monomials
        rng = random.Random(77)
        for _ in range(6):
            gens = random_homogeneous_ideal(ring, rng)
            gb = groebner_basis(gens)
            leads = gb.lead_monomials()
            for e in range(7):
                want = oracles.quotient_dim(gens, e)
                got = oracles.mono_quotient_dim(leads, 3, e)
                assert want == got


AGREEMENT_PRIMES = [7, 32003, 2**31 - 1]


class TestPackedEngineAgreement:
    """The Macaulay engine works on packed terms; the reference Buchberger
    (`oracles.buchberger`) works on tuples."""

    @pytest.mark.parametrize("p", AGREEMENT_PRIMES)
    def test_random_ideals(self, p):
        ring = Ring("x0,x1,x2", p=p)
        rng = random.Random(p)
        for _ in range(6):
            gens = random_homogeneous_ideal(ring, rng, count=rng.randrange(2, 5))
            want = oracles.buchberger(gens).elements
            assert list(macaulay_gb(gens).elements) == list(want)

    @pytest.mark.parametrize("p", AGREEMENT_PRIMES)
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_random_twisted_modules(self, p, rank):
        ring = Ring("x0,x1,x2", p=p)
        rng = random.Random(f"{p}:{rank}")
        for _ in range(4):
            shape = FreeModuleShape(rank, tuple(rng.randrange(3) for _ in range(rank)))
            gens = []
            for _ in range(rng.randrange(2, 4)):
                d = max(shape.twists) + rng.randrange(1, 3)
                comps = [ring.random_form(d - t, rng) for t in shape.twists]
                gens.append(ModuleElement.from_polynomials(shape, comps))
            a = macaulay_module_gb(gens)
            assert list(a.elements) == list(oracles.buchberger(gens).elements)

    @pytest.mark.parametrize("p", AGREEMENT_PRIMES)
    @pytest.mark.parametrize(
        "order", [None, Grevlex(3, (1, 2, 0)), Lex(3)], ids=["grevlex", "rotated", "lex"]
    )
    @pytest.mark.parametrize("rank", [1, 2])
    def test_random_inhomogeneous(self, p, order, rank):
        # homogenized into the Macaulay engine, against the pair loop run on
        # the input itself; rank 2 is twisted (0, 1)
        ring = Ring("x0,x1,x2", p=p)
        rng = random.Random(f"{p}:{rank}:{order and order.name}")
        if rank == 2:
            order = PositionOverTerm(order or ring.grevlex, 2)
        for _ in range(5):
            gens = []
            for _ in range(rng.randrange(2, 4)):
                if rank == 1:
                    gens.append(random_inhomogeneous(ring, rng, 3))
                else:
                    comps = [random_inhomogeneous(ring, rng, 2, 2) for _ in range(2)]
                    gens.append(ModuleElement.from_polynomials(MODULE_SHAPE, comps))
            gb = groebner_basis(gens, order)
            assert gb.minimal is None
            assert list(gb.elements) == list(oracles.buchberger(gens, order).elements)

    def test_exponents_at_the_cap(self):
        # x^255 walks down a chain of 127 reducer rows to y^255, so exponent
        # fields run from 0 to 255, the most a cap of 255 lets a term hold
        r = Ring("x,y", p=32003, cap=255)
        f1 = r.parse("x^2 + 3*x*y - y^2")
        top = r.parse("x^255")
        f2 = top - normal_form(top, oracles.buchberger([f1], cap=255))
        f2 = f2 + r.parse("y^255")
        assert max(max(m) for m in f2.terms) == 255
        gb = macaulay_gb([f1, f2])
        assert list(gb.elements) == list(oracles.buchberger([f1, f2], cap=255).elements)
        assert list(gb.elements) == [f1, r.parse("y^255")]


def assert_interreduction_is_identity(gb):
    """The Macaulay engine's output is already reduced: interreducing it, as
    a basis of inhomogeneous input is, returns it unchanged and in the same
    order."""
    keyf = gb.term_key()
    dicts = [dict(z.terms) for z in gb.elements]
    if gb.rank1:
        dicts = [{(0, m): c for m, c in d.items()} for d in dicts]
    gels = [groebner._make_gel(gb.ring, d, keyf) for d in dicts]
    out = groebner._interreduce(gb.ring, gels, keyf, gb.ring.cap)
    assert [g.full for g in out] == dicts


class TestMacaulayOutputReduced:
    @pytest.mark.parametrize(
        "order", [None, Grevlex(3, (1, 2, 0)), Lex(3)], ids=["grevlex", "rotated", "lex"]
    )
    def test_ideals(self, ring, order):
        rng = random.Random(3141)
        for _ in range(8):
            gens = random_homogeneous_ideal(ring, rng, count=rng.randrange(2, 4))
            assert_interreduction_is_identity(macaulay_gb(gens, order=order))

    def test_modules(self, ring):
        rng = random.Random(2718)
        for _ in range(6):
            gens = random_homogeneous_module(ring, rng)
            assert_interreduction_is_identity(macaulay_module_gb(gens))


class TestNormalForm:
    def test_nf_is_zero_exactly_on_members(self, ring):
        gens = [ring.parse("x0^2 - x1*x2"), ring.parse("x1^2 - x0*x2")]
        gb = groebner_basis(gens)
        inside = gens[0] * ring.parse("x2^2") + gens[1] * ring.parse("x0*x1")
        assert not normal_form(inside, gb)
        assert normal_form(ring.parse("x0*x1*x2"), gb)

    def test_nf_idempotent_and_linear(self, ring):
        rng = random.Random(55)
        gens = random_homogeneous_ideal(ring, rng)
        gb = groebner_basis(gens)
        for _ in range(10):
            f = ring.random_form(4, rng)
            g = ring.random_form(4, rng)
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf
            lhs = normal_form(f + g, gb)
            rhs = normal_form(f, gb) + normal_form(g, gb)
            assert lhs == rhs

    def test_nf_against_reduced_basis_uses_no_lead(self, ring):
        gb = groebner_basis([ring.parse("x0"), ring.parse("x1")])
        f = ring.parse("x0*x2 + x1 + x2^2")
        assert normal_form(f, gb) == ring.parse("x2^2")


def assert_syzygies_complete(gens, syz):
    """Every syzygy vanishes, and in each degree through the largest
    generator degree + 3 the syzygies span the oracle's full syzygy slice."""
    ring = gens[0].ring
    polys = isinstance(gens[0], Polynomial)
    rank = 1 if polys else gens[0].shape.rank
    for z in syz:
        for comp in range(rank):
            acc = ring.zero()
            for i, g in enumerate(gens):
                acc = acc + z.component(i) * (g if polys else g.component(comp))
            assert acc == 0
    degrees = [
        (g.homogeneous_degree() if polys else g.module_degree()) or 0 for g in gens
    ]
    for e in range(max(degrees) + 4):
        got = 0
        if syz:
            spans = [(z.components(), z.module_degree()) for z in syz]
            got = oracles.module_span_rank(ring, spans, syz[0].shape.twists, e)
        assert got == oracles.syzygy_dim(gens, e), e


class TestSyzygyCompleteness:
    def test_random_homogeneous_triples(self, ring):
        rng = random.Random(1618)
        for _ in range(6):
            gens = random_homogeneous_ideal(ring, rng, count=3, maxdeg=3)
            assert_syzygies_complete(gens, syzygy_generators(gens))

    def test_module_input(self, ring):
        rng = random.Random(1414)
        cases = [random_homogeneous_module(ring, rng) for _ in range(3)]
        # a second resolution level: twists are the triple's degrees
        cases.append(syzygy_generators(random_homogeneous_ideal(ring, rng)))
        for gens in cases:
            assert_syzygies_complete(gens, syzygy_generators(gens))

    def test_zero_and_duplicate_generators(self, ring):
        f = ring.parse("x0^2 + x1*x2")
        g = ring.parse("x1^3 - x0*x2^2")
        for gens in (
            [ring.parse("x0"), ring.zero()],
            [f, f],
            [f, ring.zero(), g, f],
            [ring.zero(), ring.zero()],
        ):
            assert_syzygies_complete(gens, syzygy_generators(gens))

    def test_inhomogeneous_koszul_in_module(self):
        r = Ring("x,y")
        gens = [r.parse("x^2 + y"), r.parse("x*y - 1")]
        syz = syzygy_generators(gens)
        assert syz
        for z in syz:
            assert z.component(0) * gens[0] + z.component(1) * gens[1] == 0
        koszul = ModuleElement.from_polynomials(syz[0].shape, [gens[1], -gens[0]])
        assert not normal_form(koszul, groebner_basis(syz))


def assert_syzygies_match_buchberger(gens):
    """syzygy_generators agrees with the same elimination run by the
    reference Buchberger, under the ring's cap."""
    rows, k = syzygy_rows(gens)
    ring = rows[0].ring
    order = PositionOverTerm(ring.grevlex, k + len(rows))
    gb = oracles.buchberger(rows, order, ring.cap)
    expected = [
        {(c - k, t): v for (c, t), v in z.terms.items()}
        for z in gb
        if all(c >= k for c, _ in z.terms)
    ]
    got = [z.terms for z in syzygy_generators(gens)]
    assert sorted(sorted(d.items()) for d in got) == sorted(
        sorted(d.items()) for d in expected
    )


class TestDegreeCap:
    def test_cap_raises(self):
        # the S-pair of these leads lives in degree 4
        ring = Ring("x0,x1,x2", cap=3)
        gens = [ring.parse("x0^2*x1 - x2^3"), ring.parse("x0*x1^2 - x2^3")]
        with pytest.raises(DegreeCapExceeded):
            groebner_basis(gens)
        with pytest.raises(DegreeCapExceeded):
            oracles.buchberger(gens, cap=3)

    def test_cap_past_exponent_limit_refused(self, ring):
        # a ring refuses the cap before any basis is asked for
        with pytest.raises(ExponentLimitError):
            Ring("x0,x1,x2", cap=256)
        assert Ring("x0,x1,x2", cap=255).cap == 255
        with pytest.raises(ExponentLimitError):
            oracles.buchberger([ring.parse("x0 - x1 - x2")], cap=256)

    def test_reduction_past_exponent_limit_raises(self, ring):
        # exponents past 255 would wrap the packed order key and return a
        # wrong remainder; the default cap stops the reduction instead
        gb = groebner_basis([ring.parse("x0 - x1 - x2")])
        with pytest.raises(DegreeCapExceeded):
            normal_form(ring.parse("x0^150*x1^150"), gb)
        # below the limit the remainder is right: f - nf vanishes on the plane
        f = ring.parse("x0^100*x1^100")
        nf = normal_form(f, gb)
        assert all(m[0] == 0 for m in nf.terms)
        rng = random.Random(5)
        for _ in range(3):
            b, c = rng.randrange(ring.p), rng.randrange(ring.p)
            assert (f - nf).evaluate((b + c, b, c)) == 0

    def test_lex_tail_past_cap_raises(self):
        # the S-pair lcm x0*x1^100 has degree 101, but shifting the lex tail
        # x1^200 by x1^100 builds x1^300, past what an order key can hold;
        # homogenized, the lcm x0*x1^100*h^199 itself has degree 300
        ring = Ring("x0,x1,x2", cap=255)
        gens = [ring.parse("x0 - x1^200"), ring.parse("x0*x1^100 - 1")]
        with pytest.raises(DegreeCapExceeded):
            groebner_basis(gens, order=Lex(3))
        with pytest.raises(DegreeCapExceeded):
            oracles.buchberger(gens, order=Lex(3), cap=255)

    def test_cap_bounds_monomial_degree_in_twisted_modules(self):
        # module degrees reach 32 here, but no monomial passes degree 2
        ring = Ring("x0,x1,x2", cap=5)
        shape = FreeModuleShape(1, (30,))
        x0, x1, _ = ring.gens()
        gens = [ModuleElement.from_polynomials(shape, [f]) for f in (x0, x1)]
        gb = groebner_basis(gens)
        assert list(gb.elements) == list(oracles.buchberger(gens, cap=5).elements)
        syz = ModuleElement.from_polynomials(FreeModuleShape(2, (31, 31)), [x1, -x0])
        assert syzygy_generators(gens) == [syz]
        assert_syzygies_match_buchberger(gens)

    @pytest.mark.parametrize("power, cap", [(2, 5), (14, 40)])
    def test_cap_bounds_monomial_degree_of_syzygy_pairs(self, power, cap):
        # the S-pair of two Koszul syzygies sits in module degree
        # 2*power + power, past the cap, but builds monomials of degree
        # 2*power only
        ring = Ring("x0,x1,x2", cap=cap)
        gens = [ring.gens()[i] ** power for i in range(3)]
        syz = syzygy_generators(gens)
        assert len(syz) == 3
        assert all(z.module_degree() == 2 * power for z in syz)
        assert_syzygies_match_buchberger(gens)

    def test_cap_not_hit_when_criteria_settle_pairs(self):
        # coprime leads: both engines finish without touching degree 6
        ring = Ring("x0,x1,x2", cap=3)
        gens = [ring.parse("x0^3 - x1^2*x2"), ring.parse("x1^3 - x0*x2^2")]
        assert len(groebner_basis(gens)) == 2
        assert len(oracles.buchberger(gens, cap=3)) == 2


class TestSyzygies:
    def test_koszul_pair(self, ring):
        gens = [ring.parse("x0^2"), ring.parse("x1^3")]
        syz = syzygy_generators(gens)
        assert len(syz) == 1
        z = syz[0]
        assert z.component(0) * gens[0] + z.component(1) * gens[1] == 0
        assert z.module_degree() == 5

    def test_two_linear_forms(self, ring):
        gens = [ring.parse("x1 + x0"), ring.parse("x0")]
        syz = syzygy_generators(gens)
        assert len(syz) == 1
        z = syz[0]
        assert z.component(0) * gens[0] + z.component(1) * gens[1] == 0

    def test_three_coordinates(self, ring):
        gens = ring.gens()
        syz = syzygy_generators(gens)
        assert len(syz) == 3
        for z in syz:
            acc = ring.zero()
            for i, c in enumerate(z.components()):
                acc = acc + c * gens[i]
            assert acc == 0
        assert sorted(z.module_degree() for z in syz) == [2, 2, 2]

    def test_syzygies_random(self, ring):
        rng = random.Random(2718)
        for _ in range(8):
            gens = random_homogeneous_ideal(ring, rng, count=3, maxdeg=2)
            syz = syzygy_generators(gens)
            for z in syz:
                acc = ring.zero()
                for i, c in enumerate(z.components()):
                    acc = acc + c * gens[i]
                assert acc == 0

    def test_duplicate_generator(self, ring):
        f = ring.parse("x0^2 + x1*x2")
        syz = syzygy_generators([f, f])
        assert len(syz) == 1
        assert syz[0].module_degree() == 2

    def test_zero_generator_unit_syzygy(self, ring):
        syz = syzygy_generators([ring.parse("x0"), ring.zero()])
        assert len(syz) == 1
        assert syz[0].component(0) == 0
        assert syz[0].component(1) == ring.one()

    def test_module_syzygies(self, ring):
        shape = FreeModuleShape.plain(2)
        z1 = ModuleElement.from_polynomials(shape, [ring.parse("x0"), ring.parse("x1")])
        z2 = ModuleElement.from_polynomials(shape, [ring.parse("x1"), ring.parse("x0")])
        z3 = ModuleElement.from_polynomials(
            shape, [ring.parse("x0 + x1"), ring.parse("x0 + x1")]
        )
        syz = syzygy_generators([z1, z2, z3])
        for s in syz:
            for comp in range(2):
                acc = ring.zero()
                for i, zi in enumerate((z1, z2, z3)):
                    acc = acc + s.component(i) * zi.component(comp)
                assert acc == 0
        assert len(syz) == 1


class TestModuleBases:
    def test_module_membership(self, ring):
        shape = FreeModuleShape.plain(2)
        z1 = ModuleElement.from_polynomials(shape, [ring.parse("x0"), ring.parse("x1")])
        z2 = ModuleElement.from_polynomials(shape, [ring.parse("x1"), ring.zero()])
        gb = groebner_basis([z1, z2])
        probe = ModuleElement.from_polynomials(
            shape, [ring.parse("x0*x2 + x1^2"), ring.parse("x1*x2")]
        )
        # probe = x2*z1 + x1*z2
        assert not normal_form(probe, gb)
        other = ModuleElement.from_polynomials(shape, [ring.zero(), ring.parse("x2")])
        assert normal_form(other, gb)

    def test_twisted_degrees(self, ring):
        shape = FreeModuleShape(2, (1, 2))
        z = ModuleElement.from_polynomials(
            shape, [ring.parse("x0*x1"), ring.parse("x2")]
        )
        assert z.module_degree() == 3
        assert z.is_homogeneous()


def element_degree(z):
    return z.homogeneous_degree() if isinstance(z, Polynomial) else z.module_degree()


def span_rank(elements, twists, degree):
    if not elements:
        return 0
    ring = elements[0].ring
    spans = [
        ([z] if isinstance(z, Polynomial) else z.components(), element_degree(z))
        for z in elements
    ]
    return oracles.module_span_rank(ring, spans, twists, degree)


def assert_marks_match_reference(marked, pool, twists):
    """The marked elements minimally generate what pool generates: per degree
    as many as the dense pruning keeps, spanning the same module."""
    reference = oracles.minimal_module_generators(pool)
    assert Counter(map(element_degree, marked)) == Counter(
        map(element_degree, reference)
    )
    for e in range(max(map(element_degree, pool)) + 3):
        assert span_rank(marked, twists, e) == span_rank(pool, twists, e), e


def syzygy_rows(gens):
    """The rows (g_i | e_i) of syzygy_generators, and the component count k."""
    if not isinstance(gens[0], ModuleElement):
        gens = [ModuleElement.from_polynomials(FreeModuleShape.plain(1), [f]) for f in gens]
    ring, shape = gens[0].ring, gens[0].shape
    k, m = shape.rank, len(gens)
    twists = shape.twists + tuple(z.module_degree() for z in gens)
    one = (0,) * ring.nvars
    rows = [
        ModuleElement(ring, FreeModuleShape(k + m, twists), {**z.terms, (k + i, one): 1})
        for i, z in enumerate(gens)
    ]
    return rows, k


class TestMinimalGenerators:
    """Minimal generators are the elements the Macaulay engine marks."""

    def test_drops_linear_combination(self, ring):
        kept = Ideal.parse(ring, ["x0", "x1", "x0 + x1"]).minimal_gens()
        assert len(kept) == 2

    def test_drops_multiple(self, ring):
        kept = Ideal.parse(ring, ["x0^2", "x0"]).minimal_gens()
        assert [str(f) for f in kept] == ["x0"]

    def test_keeps_independent(self, ring):
        gens = ["x0^2", "x1^2", "x2^2"]
        assert len(Ideal.parse(ring, gens).minimal_gens()) == 3

    def test_module_case(self, ring):
        shape = FreeModuleShape.plain(2)
        a = ModuleElement.from_polynomials(shape, [ring.parse("x0"), ring.zero()])
        b = ModuleElement.from_polynomials(shape, [ring.zero(), ring.parse("x1")])
        c = ModuleElement.from_polynomials(
            shape, [ring.parse("x0*x2"), ring.parse("x1*x2")]
        )
        kept = groebner_basis([a, b, c]).minimal_elements()
        assert len(kept) == 2

    def test_marks_match_dense_pruning(self, ring):
        rng = random.Random(3141)
        for _ in range(8):
            gens = random_homogeneous_ideal(ring, rng, count=rng.randrange(2, 5))
            # redundant generators: a multiple and a sum of multiples
            a, b = gens[0], gens[1]
            d = max(a.homogeneous_degree(), b.homogeneous_degree()) + 1
            gens.append(ring.random_form(1, rng) * a)
            gens.append(
                ring.random_form(d - a.homogeneous_degree(), rng) * a
                + ring.random_form(d - b.homogeneous_degree(), rng) * b
            )
            rng.shuffle(gens)
            marked = Ideal(ring, gens).minimal_gens()
            assert_marks_match_reference(marked, gens, (0,))
            # the marks do not depend on the generator list
            gb = groebner_basis(gens)
            assert Ideal(ring, gb.elements).minimal_gens() == marked

    def test_module_marks_match_dense_pruning(self, ring):
        rng = random.Random(2718)
        for _ in range(6):
            gens = random_homogeneous_module(ring, rng, count=rng.randrange(2, 5))
            x = ring.random_form(1, rng)
            gens.append(ModuleElement.from_polynomials(
                MODULE_SHAPE, [x * f for f in gens[0].components()]
            ))
            marked = groebner_basis(gens).minimal_elements()
            assert_marks_match_reference(marked, gens, MODULE_SHAPE.twists)

    def test_syzygy_marks_match_dense_pruning(self, ring):
        rng = random.Random(1729)
        cases = [random_homogeneous_ideal(ring, rng, count=4) for _ in range(4)]
        cases += [random_homogeneous_module(ring, rng, count=4) for _ in range(2)]
        cases.append(syzygy_generators(random_homogeneous_ideal(ring, rng)))
        for gens in cases:
            rows, k = syzygy_rows(gens)
            # every syzygy basis element, from the reference Buchberger
            basis = oracles.buchberger(rows, PositionOverTerm(ring.grevlex, len(rows) + k))
            tshape = FreeModuleShape(len(rows), rows[0].shape.twists[k:])
            pool = [
                ModuleElement(ring, tshape, {(c - k, t): v for (c, t), v in z.terms.items()})
                for z in basis
                if all(c >= k for c, _ in z.terms)
            ]
            assert_marks_match_reference(syzygy_generators(gens), pool, tshape.twists)

    def test_syzygy_marks_count_syzygy_pairs_only(self, ring):
        # The Koszul syzygies of (x0, x1, x2) are S-pair combinations of the
        # rows (x_i | e_i), so marks that counted every S-pair would mark no
        # syzygy; the cache keeps the marks of each count apart.
        rows, k = syzygy_rows(ring.gens())
        order = PositionOverTerm(ring.grevlex, len(rows) + k)
        for minimal_from in (k, 0, k):
            gb = groebner_basis(rows, order, _minimal_from=minimal_from)
            marked = gb.minimal_elements()
            led_past_k = [all(c >= k for c, _ in z.terms) for z in marked]
            degrees = [z.module_degree() for z in marked]
            if minimal_from:
                assert led_past_k == [True] * 3 and degrees == [2, 2, 2]
            else:
                assert led_past_k == [False] * 3 and degrees == [1, 1, 1]
        assert len(syzygy_generators(ring.gens())) == 3


class TestOrderAdapters:
    def test_position_over_term(self, ring):
        order = PositionOverTerm(ring.grevlex, 3)
        assert order.key((0, (0, 0, 0))) > order.key((1, (5, 5, 5)))
        assert order.key((1, (1, 0, 0))) > order.key((1, (0, 1, 0)))

    def test_ring_adapter(self, ring):
        keyf = RingOrderAdapter(ring.grevlex).key
        assert keyf((0, (1, 0, 0))) == ring.grevlex.key((1, 0, 0))



@pytest.fixture
def engine_runs(monkeypatch):
    """(rank, exponent fields) of each Macaulay engine run, in call order."""
    runs = []
    engine = groebner._macaulay_engine

    def counted(p, n, twists, *args, **kwargs):
        runs.append((len(twists), n))
        return engine(p, n, twists, *args, **kwargs)

    monkeypatch.setattr(groebner, "_macaulay_engine", counted)
    return runs


def test_dispatch_by_homogeneity(ring, engine_runs):
    # every input reaches the Macaulay engine, for ideals and modules alike;
    # inhomogeneous input does so homogenized, with one more exponent field
    shape = FreeModuleShape.plain(2)
    x0, x1, x2 = ring.gens()
    cases = [
        ([x0 * x1, x1 * x2], (1, 3)),
        ([x0 * x1 + x2, x1 * x2], (1, 4)),
        ([ModuleElement.from_polynomials(shape, [x0, x1])], (2, 3)),
        ([ModuleElement.from_polynomials(shape, [x0, x1 * x2])], (2, 4)),
    ]
    for gens, run in cases:
        gb = groebner_basis(gens)
        assert engine_runs[-1] == run
        assert (gb.minimal is None) == (run[1] == 4)
    assert len(engine_runs) == len(cases)


def test_syzygies_dispatch_and_cache(ring, engine_runs):
    # the rows (g_i | e_i) take groebner_basis's dispatch and the ring's cache
    gens = [ring.parse("x0^2"), ring.parse("x0*x1"), ring.parse("x1^2 - x2^2")]
    first = syzygy_generators(gens)
    assert syzygy_generators(gens) == first
    assert engine_runs == [(4, 3)]
    inhomogeneous = [ring.parse("x0^2 + x1"), ring.parse("x1*x2")]
    first = syzygy_generators(inhomogeneous)
    assert syzygy_generators(inhomogeneous) == first
    assert engine_runs == [(4, 3), (3, 4)]


CACHE_GENS = ("x0^2 + 2*x1*x2", "x0*x1 + 3*x2^2", "x1^3 - x0*x2^2")


class TestBasisCache:
    def test_identity_permutation_is_default_grevlex(self, ring, engine_runs):
        assert Grevlex(3, (0, 1, 2)).name == ring.grevlex.name
        assert Lex(3, (0, 1, 2)).name == Lex(3).name
        gb = Ideal.parse(ring, CACHE_GENS).gb()
        again = Ideal.parse(ring, CACHE_GENS[::-1]).gb(Grevlex(3, (0, 1, 2)))
        assert again is gb
        assert engine_runs == [(1, 3)]

    def test_reduced_basis_is_a_key(self, ring, engine_runs):
        gb = Ideal.parse(ring, CACHE_GENS).gb()
        assert Ideal(ring, gb.elements).gb() is gb
        assert engine_runs == [(1, 3)]

    def test_orders_never_share(self, ring, engine_runs):
        gens = [ring.parse(t) for t in CACHE_GENS]
        orders = (
            ring.grevlex,
            Grevlex(3, (1, 2, 0)),
            Lex(3),
        )
        rank1 = FreeModuleShape.plain(1)
        module_gens = [ModuleElement.from_polynomials(rank1, [f]) for f in gens]
        pot = PositionOverTerm(ring.grevlex, 1)
        shared = [groebner_basis(gens, order) for order in orders]
        shared.append(groebner_basis(module_gens, pot))
        assert len({id(gb) for gb in shared}) == len(orders) + 1
        assert len(engine_runs) == len(orders) + 1
        for order, gb in zip(orders, shared):
            fresh = Ring("x0,x1,x2")
            alone = groebner_basis([fresh.parse(t) for t in CACHE_GENS], order)
            assert gb.elements == alone.elements
        assert all(isinstance(z, ModuleElement) for z in shared[-1].elements)
        assert [z.component(0) for z in shared[-1].elements] == list(
            shared[0].elements
        )
        assert groebner_basis(gens) is shared[0]

    def test_primes_never_share(self):
        bases = {}
        for p in (32003, 32009):
            r = Ring("x0,x1,x2", p=p)
            gb = Ideal.parse(r, CACHE_GENS).gb()
            assert all(entry.ring.p == p for entry in r.basis_cache.values())
            bases[p] = sorted(str(g) for g in gb.elements)
        assert bases[32003] != bases[32009]

    def test_dropped_basis_is_rebuilt_from_the_cache(self, ring, engine_runs):
        gens = [ring.parse(t) for t in CACHE_GENS]
        for g in (gens, random_homogeneous_module(ring, random.Random(5))):
            want = list(groebner_basis(g).elements)  # nothing holds the basis
            assert list(groebner_basis(g).elements) == want
        assert engine_runs == [(1, 3), (2, 3)]

    def test_dropped_ring_is_freed_without_a_collection(self):
        gc.collect()
        gc.disable()
        try:
            r = Ring("x0,x1,x2")
            gb = Ideal.parse(r, CACHE_GENS).gb()
            assert r.basis_cache
            freed = weakref.ref(r)
            del r, gb
            assert freed() is None
        finally:
            gc.enable()

    def test_cap_is_part_of_the_ring(self):
        # the same generators over rings with caps 3 and 40: each ring's
        # cache serves its own cap, in either order
        texts = ["x0^2*x1 - x2^3", "x0*x1^2 - x2^3"]
        low, high = Ring("x0,x1,x2", cap=3), Ring("x0,x1,x2", cap=40)
        assert low != high
        for first, second in ((low, high), (high, low)):
            for r in (first, second):
                gens = [r.parse(t) for t in texts]
                if r is low:
                    with pytest.raises(DegreeCapExceeded):
                        groebner_basis(gens)
                else:
                    assert len(groebner_basis(gens)) > 2

    def test_order_arity_checked_before_lookup(self, ring):
        gens = [ring.parse(t) for t in CACHE_GENS]
        groebner_basis(gens)
        with pytest.raises(RingMismatchError):
            groebner_basis(gens, Grevlex(4))

    def test_mixed_rings_refused_in_either_order(self):
        # the lookup reads the first element's ring; a hit there must not
        # hide that the list mixes rings
        r1, r2 = Ring("x0,x1,x2", p=32003), Ring("x0,x1,x2", p=32009)
        f, g = r1.parse("x0^2 + x1*x2"), r1.parse("x1^2")
        other = r2.parse("x1^2")
        groebner_basis([f, g])
        groebner_basis([r2.parse("x0^2 + x1*x2"), other])
        for mixed in ([f, other], [other, f], [r2.zero(), f, g]):
            with pytest.raises(RingMismatchError):
                groebner_basis(mixed)

    def test_bounded_least_recently_used(self, ring, engine_runs):
        # one key per single-monomial ideal: its basis is its generator
        monos = [m for d in range(1, 20) for m in ring.monomials_of_degree(d)]
        ideals = [[ring.monomial(m)] for m in monos[: BASIS_CACHE_SIZE + 1]]
        for gens in ideals:
            groebner_basis(gens)
        assert len(ring.basis_cache) == BASIS_CACHE_SIZE
        runs = len(engine_runs)
        groebner_basis(ideals[-1])
        assert len(engine_runs) == runs
        groebner_basis(ideals[0])
        assert len(engine_runs) == runs + 1


class TestPrimeLimit:
    def test_largest_prime_hilbert_function(self):
        # three generic quadrics: a complete intersection of length 8
        for p in (32003, 2147483647):
            r = Ring("x0,x1,x2", p=p)
            rng = random.Random(1)
            ideal = Ideal(r, [r.random_form(2, rng) for _ in range(3)])
            assert [ideal.quotient_dim(e) for e in range(6)] == [1, 3, 3, 1, 0, 0]
