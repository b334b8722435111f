"""Ring arithmetic, orders, parsing and printing."""
import importlib
import inspect
import pkgutil
import random

import pytest

import nodal
from nodal import (
    CharacteristicError,
    ExponentLimitError,
    Grevlex,
    Ideal,
    InvariantViolation,
    Lex,
    ParseError,
    Ring,
    RingMismatchError,
    default_ring,
    groebner,
    intersect,
    parse_fixture,
)
from nodal.validators import STATEMENTS

from oracles import naive_mul, random_projective_point


@pytest.fixture
def ring():
    return Ring("x0,x1,x2")


def random_poly(ring, rng, maxdeg=4, nterms=6):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
        terms[m] = rng.randrange(ring.p)
    return ring.poly(terms)


class TestRingConstruction:
    def test_default_prime(self, ring):
        assert ring.p == 32003
        assert ring.nvars == 3

    def test_accepts_name_list(self):
        r = Ring(["u", "v"], p=32009)
        assert r.names == ("u", "v")

    def test_rejects_composite(self):
        with pytest.raises(CharacteristicError):
            Ring("x0,x1", p=32001)

    def test_prime_limit_boundary(self):
        # 2^31 - 1 is the largest prime below the int64 elimination limit;
        # the next prime is refused rather than computed wrongly
        assert Ring("x0,x1", p=2147483647).p == 2147483647
        with pytest.raises(CharacteristicError):
            Ring("x0,x1", p=2147483659)
        with pytest.raises(CharacteristicError):
            Ring("x0,x1", p=4294967311)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Ring("x0,x0")

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            Ring("x0,3y")

    def test_equality_is_structural(self):
        assert Ring("x0,x1") == Ring("x0,x1")
        assert Ring("x0,x1") != Ring("x0,x1", p=32009)

    def test_cap_is_checked_where_a_ring_is_built(self):
        assert Ring("x0,x1").cap == nodal.DEFAULT_DEGREE_CAP == 40
        assert groebner.DEFAULT_DEGREE_CAP == 40
        assert Ring("x0,x1", cap=255).cap == 255
        assert default_ring(32003, 39).cap == 39
        assert parse_fixture(TWO_LINES_FIXTURE, None, 39).ring.cap == 39
        for build in (
            lambda: Ring("x0,x1", cap=256),
            lambda: default_ring(32003, 256),
            lambda: parse_fixture(TWO_LINES_FIXTURE, None, 256),
        ):
            with pytest.raises(ExponentLimitError):
                build()

    def test_cap_is_part_of_equality(self):
        a, b = Ring("x0,x1,x2", cap=39), Ring("x0,x1,x2", cap=39)
        c = Ring("x0,x1,x2")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2
        # the ring checks refuse anything that mixes caps
        with pytest.raises(RingMismatchError):
            a.gen(0) * c.gen(1)
        with pytest.raises(ValueError):
            Ideal(a, [c.gen(0)])
        with pytest.raises(InvariantViolation):
            intersect(Ideal(a, [a.gen(0)]), Ideal(c, [c.gen(1)]))


TWO_LINES_FIXTURE = "ring p=32003 vars=x0,x1,x2\ncomponent: x0\ncomponent: x1\n"

# the callables that build rings, and so take a degree cap, and the check
# they run on it
RING_BUILDERS = {
    "nodal.ring.check_degree_cap",
    "nodal.ring.Ring",
    "nodal.curves.default_ring",
    "nodal.curves.parse_fixture",
    "nodal.validators.run_statement",
} | {f"nodal.validators.{runner.__name__}" for runner in STATEMENTS.values()}


def _public_callables():
    """(qualified name, callable) for every public function, class and public
    method defined in a `nodal` module.  Exceptions are skipped: they record
    a refusal, such as the cap a computation hit, and compute nothing."""
    for info in pkgutil.iter_modules(nodal.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"nodal.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            qual = f"{mod.__name__}.{name}"
            if inspect.isfunction(obj):
                yield qual, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield qual, obj
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and inspect.isroutine(member):
                        yield f"{qual}.{attr}", member


def test_only_ring_builders_take_a_cap():
    found = dict(_public_callables())
    assert "nodal.ideals.Ideal.gb" in found and "nodal.ideals.codimension" in found
    takes = {
        qual
        for qual, obj in found.items()
        if "cap" in inspect.signature(obj).parameters
    }
    assert takes == RING_BUILDERS


class TestArithmetic:
    def test_ring_axioms_random(self, ring):
        rng = random.Random(101)
        for _ in range(60):
            f = random_poly(ring, rng)
            g = random_poly(ring, rng)
            h = random_poly(ring, rng)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert (f * g) * h == f * (g * h)
            assert f - f == ring.zero()
            assert f * ring.one() == f
            assert f * ring.zero() == ring.zero()

    def test_mul_matches_schoolbook(self, ring):
        rng = random.Random(202)
        for _ in range(40):
            f = random_poly(ring, rng)
            g = random_poly(ring, rng)
            assert f * g == naive_mul(f, g)

    def test_evaluation_is_a_homomorphism(self, ring):
        rng = random.Random(303)
        for _ in range(100):
            f = random_poly(ring, rng)
            g = random_poly(ring, rng)
            pt = tuple(rng.randrange(ring.p) for _ in range(3))
            p = ring.p
            assert (f + g).evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % p
            assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) % p

    def test_int_operands(self, ring):
        f = ring.parse("x0 + 1")
        assert f - 1 == ring.parse("x0")
        assert 2 * f == ring.parse("2*x0 + 2")
        assert f * 0 == 0

    def test_pow_matches_repeated_product(self, ring):
        f = ring.parse("x0 + x1 - 2*x2")
        acc = ring.one()
        for k in range(6):
            assert f**k == acc
            acc = acc * f

    def test_product_of_generic_linear_forms(self, ring):
        rng = random.Random(404)
        fs = [ring.random_linear(rng) for _ in range(5)]
        prod = ring.one()
        for f in fs:
            prod = prod * f
        assert prod.is_homogeneous()
        assert prod.homogeneous_degree() == 5
        pt = random_projective_point(ring, rng)
        expect = 1
        for f in fs:
            expect = expect * f.evaluate(pt) % ring.p
        assert prod.evaluate(pt) == expect

    def test_euler_relation(self, ring):
        rng = random.Random(505)
        f = ring.random_form(5, rng)
        total = ring.zero()
        for i in range(3):
            total = total + ring.gen(i) * f.partial_derivative(i)
        assert total == 5 * f

    def test_derivative_product_rule(self, ring):
        rng = random.Random(606)
        for _ in range(20):
            f = random_poly(ring, rng)
            g = random_poly(ring, rng)
            lhs = (f * g).partial_derivative(1)
            rhs = f.partial_derivative(1) * g + f * g.partial_derivative(1)
            assert lhs == rhs

    def test_ring_mismatch_raises(self, ring):
        other = Ring("x0,x1,x2", p=32009)
        with pytest.raises(RingMismatchError):
            ring.one() + other.one()

    def test_exponent_cap_on_product(self, ring):
        f = ring.parse("x0") ** 200
        with pytest.raises(ExponentLimitError):
            f * f

    def test_degree_bookkeeping(self, ring):
        assert ring.zero().degree() == -1
        assert ring.one().degree() == 0
        f = ring.parse("x0*x2^3 + x1")
        assert f.degree() == 4
        assert not f.is_homogeneous()
        with pytest.raises(ValueError):
            f.homogeneous_degree()


class TestOrders:
    def test_grevlex_within_degree(self, ring):
        key = ring.grevlex.key
        x0, x1, x2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert key(x0) > key(x1) > key(x2)
        # inside degree 2 the variable with the smallest exponent of the
        # cheapest variable wins
        assert key((0, 2, 0)) > key((1, 0, 1))
        assert key((1, 1, 0)) > key((0, 2, 0))
        assert key((2, 0, 0)) > key((1, 1, 0))

    def test_degree_dominates(self, ring):
        key = ring.grevlex.key
        assert key((0, 0, 3)) > key((1, 1, 0))

    def test_grevlex_permutation(self):
        # make x0 the cheapest variable: its pure powers sort last in degree 1
        o = Grevlex(3, perm=(1, 2, 0))
        assert o.key((0, 1, 0)) > o.key((0, 0, 1)) > o.key((1, 0, 0))

    def test_lex(self):
        o = Lex(3)
        assert o.key((1, 0, 5)) > o.key((0, 6, 0))
        assert o.key((0, 1, 0)) > o.key((0, 0, 9))

    def test_order_is_multiplicative(self, ring):
        rng = random.Random(707)
        key = ring.grevlex.key
        for _ in range(200):
            a = tuple(rng.randrange(6) for _ in range(3))
            b = tuple(rng.randrange(6) for _ in range(3))
            c = tuple(rng.randrange(6) for _ in range(3))
            if key(a) > key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key(ac) > key(bc)

    def test_monomials_of_degree(self, ring):
        ms = ring.monomials_of_degree(4)
        assert len(ms) == 15  # C(4+2, 2)
        assert ms[0] == (4, 0, 0)
        assert ms[-1] == (0, 0, 4)
        key = ring.grevlex.key
        assert all(key(a) > key(b) for a, b in zip(ms, ms[1:]))


class TestParsePrint:
    def test_basic_forms(self, ring):
        f = ring.parse("3*x0^2*x1 - x2^3 + 7")
        assert f.coefficient((2, 1, 0)) == 3
        assert f.coefficient((0, 0, 3)) == ring.p - 1
        assert f.coefficient((0, 0, 0)) == 7

    def test_roundtrip_random(self, ring):
        rng = random.Random(808)
        for _ in range(50):
            f = random_poly(ring, rng)
            assert ring.parse(str(f)) == f

    def test_roundtrip_is_canonical(self, ring):
        f = ring.parse("x1*x0 + x0*x1 + x2")
        assert str(f) == "2*x0*x1 + x2"
        assert str(ring.zero()) == "0"
        assert str(ring.parse("x0 - 4*x0")) == "-3*x0"

    def test_whitespace_and_juxtaposition(self, ring):
        assert ring.parse(" 2 x0 ^ 2 ") == ring.parse("2*x0^2")
        assert ring.parse("2*3*x0") == ring.parse("6*x0")

    def test_leading_sign(self, ring):
        assert ring.parse("-x0 + x1") == ring.parse("x1") - ring.parse("x0")

    def test_cancellation_to_zero(self, ring):
        assert ring.parse("x0 - x0") == ring.zero()

    def test_error_positions(self, ring):
        with pytest.raises(ParseError) as e:
            ring.parse("x0 + % x1")
        assert e.value.position == 5
        with pytest.raises(ParseError) as e:
            ring.parse("x0 + * x1")
        assert e.value.position is not None
        with pytest.raises(ParseError):
            ring.parse("x0 +")
        with pytest.raises(ParseError):
            ring.parse("")
        with pytest.raises(ParseError) as e:
            ring.parse("x0 + y9")
        assert "y9" in str(e.value)
        with pytest.raises(ParseError):
            ring.parse("x0^x1")

    def test_exponent_limit_in_parse(self, ring):
        with pytest.raises(ExponentLimitError):
            ring.parse("x0^300")


class TestHeader:
    def test_parse_header(self):
        fx = parse_fixture("ring p=32003 vars=x0,x1,x2\ngenerator: x0")
        assert fx.ring == Ring("x0,x1,x2")

    def test_header_other_prime(self):
        fx = parse_fixture("ring p=32009 vars=u,v,w,t\ngenerator: u")
        assert fx.ring.p == 32009
        assert fx.ring.nvars == 4

    def test_header_errors(self):
        for bad in (
            "ring p=32001 vars=x0,x1",  # composite
            "ring vars=x0,x1",
            "p=32003 vars=x0,x1",
            "ring p=32003",
            "ring p=32003 vars=x0,x0",
            "ring p=abc vars=x0,x1",
            "ring p=32003 vars=x0,1y",
        ):
            with pytest.raises(ParseError):
                parse_fixture(bad + "\ngenerator: 1")


class TestRandomForms:
    def test_random_form_shape(self, ring):
        rng = random.Random(909)
        f = ring.random_form(3, rng)
        assert f.is_homogeneous()
        assert f.homogeneous_degree() == 3

    def test_seeded_determinism(self, ring):
        a = ring.random_form(4, random.Random(42))
        b = ring.random_form(4, random.Random(42))
        assert a == b
