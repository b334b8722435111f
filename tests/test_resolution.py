"""Resolutions, Betti tables, Hilbert data."""
import random
from pathlib import Path

import pytest

from nodal import CurveSpec, InvariantViolation, Ring, validators
from nodal.curves import conductor_nodal, jacobian_ideal, parse_fixture
from nodal.groebner import FreeModuleShape, ModuleElement
from nodal.ideals import (
    Ideal,
    _series_coefficient,
    ideal_product,
    intersect,
    points_are_reduced,
    saturate,
    scheme_length,
)
from nodal.resolution import (
    _resolve,
    resolve_ideal,
    resolve_presented,
    resolve_quotient,
)
from nodal.hilbert import (
    cm_regularity_crosscheck,
    evaluate_polynomial,
    hilbert_function,
    resolution_hilbert_polynomial,
)
from nodal.report import BettiTable, betti_table

import oracles

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture
def ring():
    return Ring("x0,x1,x2")


def poly_det(mat):
    if len(mat) == 1:
        return mat[0][0]
    out = None
    for r in range(len(mat)):
        minor = [row[1:] for i, row in enumerate(mat) if i != r]
        term = mat[r][0] * poly_det(minor)
        if r % 2:
            term = -term
        out = term if out is None else out + term
    return out


def determinantal_ideal(ring, rng, m):
    """Maximal minors of an (m+1) x m matrix, first column degree 2m-1,
    the rest quadrics."""
    mat = [
        [ring.random_form(2 * m - 1 if c == 0 else 2, rng) for c in range(m)]
        for _ in range(m + 1)
    ]
    minors = []
    for skip in range(m + 1):
        sub = [row for i, row in enumerate(mat) if i != skip]
        minors.append(poly_det(sub))
    return Ideal(ring, minors)


class TestKnownResolutions:
    def test_koszul_on_variables(self, ring):
        res = resolve_quotient(Ideal.parse(ring, ["x0", "x1", "x2"]))
        assert res.twists == ((0,), (1, 1, 1), (2, 2, 2), (3,))
        assert res.regularity() == 0

    def test_triangle_quotient(self, ring):
        res = resolve_quotient(Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"]))
        assert res.twists == ((0,), (2, 2, 2), (3, 3))
        assert res.regularity() == 1

    def test_triangle_ideal_module(self, ring):
        res = resolve_ideal(Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"]))
        assert res.twists == ((2, 2, 2), (3, 3))
        assert res.regularity() == 2

    def test_principal(self, ring):
        res = resolve_quotient(Ideal.parse(ring, ["x0^4 + x1^4 + x2^4"]))
        assert res.twists == ((0,), (4,))
        assert res.regularity() == 3

    def test_complete_intersection_koszul_shape(self, ring):
        rng = random.Random(3)
        for d1, d2 in [(2, 3), (2, 2), (3, 4)]:
            f = ring.random_form(d1, rng)
            g = ring.random_form(d2, rng)
            res = resolve_quotient(Ideal(ring, [f, g]))
            assert res.twists == ((0,), tuple(sorted((d1, d2))), (d1 + d2,))
            assert res.regularity() == d1 + d2 - 2

    def test_zero_and_unit(self, ring):
        assert resolve_quotient(Ideal(ring, ())).twists == ((0,),)
        assert resolve_quotient(Ideal.parse(ring, ["x0", "x0 + 1"])).twists == ((),)
        assert resolve_ideal(Ideal(ring, ())).twists == ((),)
        assert resolve_quotient(Ideal.parse(ring, ["x0", "x0 + 1"])).regularity() == 0


class TestDeterminantalPoints:
    def test_nineteen_points(self, ring):
        rng = random.Random(101)
        ideal = determinantal_ideal(ring, rng, 2)
        res = resolve_ideal(ideal)
        table = betti_table(res)
        assert table.beta(0, 5) == 3
        assert table.beta(1, 7) == 1
        assert table.beta(1, 8) == 1
        assert table.regularity() == 7
        assert hilbert_function(ideal).constant() == 19
        assert scheme_length(ideal) == 19
        assert saturate(ideal).same_ideal(ideal)
        verdict = cm_regularity_crosscheck(ideal)
        assert verdict.ok
        assert verdict.computed["regularity"] == 6
        assert verdict.as_dict()["pass"]
        rep = points_are_reduced(ideal, seed=5)
        assert rep.reduced and rep.distinct_points == 19


class TestRandomPoints:
    def test_crosscheck_on_point_ideals(self, ring):
        rng = random.Random(7)
        for npts in (2, 4, 6):
            pts = [oracles.random_projective_point(ring, rng) for _ in range(npts)]
            meet = None
            for pt in pts:
                forms = []
                rowspan = Ideal(
                    ring,
                    [
                        ring.poly({(0, 1, 0): pt[0], (1, 0, 0): ring.p - pt[1]}),
                        ring.poly({(0, 0, 1): pt[0], (1, 0, 0): ring.p - pt[2]}),
                        ring.poly({(0, 0, 1): pt[1], (0, 1, 0): ring.p - pt[2]}),
                    ],
                )
                meet = rowspan if meet is None else intersect(meet, rowspan)
            res = resolve_quotient(meet)
            assert res.length == 2
            assert hilbert_function(meet).constant() == npts
            assert scheme_length(meet) == npts
            assert cm_regularity_crosscheck(meet).ok


class TestQuotientModules:
    """Free modules modulo explicit relations, through resolve_presented."""

    @staticmethod
    def product_modulo_diagonal(ring):
        # (S/x0 x S/x1) / S, which is S/(x0, x1): its Hilbert numerator is
        # 2(1 - t) - (1 - t^2) = (1 - t)^2
        return ring.gen(0), ring.gen(1), (1, -2, 1)

    def test_product_modulo_diagonal_refused(self, ring):
        # generators e1, e2, relations x0*e1, x1*e2 and the unit relation
        # e1 + e2: not a minimal presentation
        x0, x1, numerator = self.product_modulo_diagonal(ring)
        shape = FreeModuleShape(2, (0, 0))
        zero, one = ring.zero(), ring.one()
        rels = [
            ModuleElement.from_polynomials(shape, [x0, zero]),
            ModuleElement.from_polynomials(shape, [zero, x1]),
            ModuleElement.from_polynomials(shape, [one, one]),
        ]
        with pytest.raises(ValueError, match="unit entry"):
            resolve_presented(ring, (0, 0), rels, numerator)

    def test_product_modulo_diagonal_minimal(self, ring):
        # e1 = -e2 leaves one generator with relations x0 and x1
        x0, x1, numerator = self.product_modulo_diagonal(ring)
        shape = FreeModuleShape(1, (0,))
        rels = [ModuleElement.from_polynomials(shape, [f]) for f in (x0, x1)]
        res = resolve_presented(ring, (0,), rels, numerator)
        assert res.twists == ((0,), (1, 1), (2,))

    @pytest.mark.parametrize(
        "forms, twists",
        [
            (("x0", "x1"), ((0,), (1, 1), (2,))),
            (("x0", "x1", "x2"), ((0, 0), (1, 1, 1), (3,))),
            ("two-conics.fix", ((0,), (2, 2), (4,))),
        ],
    )
    def test_partial_normalization_twists(self, ring, monkeypatch, forms, twists):
        # B/A as partial_normalization_report presents it
        if isinstance(forms, str):
            spec = parse_fixture((FIXTURES / forms).read_text()).curve
        else:
            spec = CurveSpec.from_forms([ring.parse(f) for f in forms])
        seen = []

        def spy(*args, **kwargs):
            res = resolve_presented(*args, **kwargs)
            seen.append(res.twists)
            return res

        monkeypatch.setattr(validators, "resolve_presented", spy)
        assert validators.partial_normalization_report(spec).ok
        assert seen == [twists]

    def test_presented_free_module(self, ring):
        # S + S(-2) has numerator 1 + t^2
        res = resolve_presented(ring, (0, 2), [], (1, 0, 1))
        assert res.twists == ((0, 2),)
        assert res.maps == ()

    def test_numerator_checked_past_the_window(self, ring):
        # an extra t^5 leaves the Hilbert function of S + S(-2) unchanged
        # through degree 4, the largest twist plus 2, so a degreewise check
        # on that window would accept it; the numerators differ
        n = ring.nvars
        good, bad = (1, 0, 1), (1, 0, 1, 0, 0, 1)
        window = range(5)
        assert [_series_coefficient(bad, n, e) for e in window] == [
            _series_coefficient(good, n, e) for e in window
        ]
        with pytest.raises(InvariantViolation, match="Hilbert numerator"):
            resolve_presented(ring, (0, 2), [], bad)

    def test_negative_twist_refused(self, ring):
        # a numerator has no negative powers of t to hold S(1)
        with pytest.raises(ValueError, match="nonnegative"):
            resolve_presented(ring, (-1,), [], (0, 1))


def fixture_ideals(path):
    """The ideals of one fixture at 32003 that the tables are checked on: a
    curve's conductor and Jacobian ideal, or a plain fixture's ideal."""
    fixture = parse_fixture(path.read_text(), prime=32003)
    if fixture.curve is None:
        return [fixture.ideal]
    F = fixture.curve.total_form
    return [conductor_nodal(F).conductor, jacobian_ideal(F)]


class TestKoszulBetti:
    """Each Betti number of a resolution, read again by Koszul homology."""

    def test_oracle_on_known_tables(self, ring):
        # three coordinate points, and the complete intersection of two conics
        tri = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        assert oracles.koszul_betti(list(tri.gens), 6) == {
            (0, 0): 1, (1, 2): 3, (2, 3): 2,
        }
        ci = Ideal.parse(ring, ["x0^2 - x1*x2", "x1^2 - x0*x2"])
        assert oracles.koszul_betti(list(ci.gens), 6) == {
            (0, 0): 1, (1, 2): 2, (2, 4): 1,
        }

    @pytest.mark.parametrize(
        "path", sorted(FIXTURES.glob("*.fix")), ids=lambda path: path.stem
    )
    def test_fixture_tables_match_koszul(self, path):
        for ideal in fixture_ideals(path):
            res = resolve_quotient(ideal)
            jmax = res.max_twist() + 2
            assert oracles.koszul_betti(list(ideal.gens), jmax) == res.betti()


class TestMinimization:
    def test_redundant_generator_refused(self, ring):
        # the syzygy e0 + e1 - e3 of a redundant generator has unit entries;
        # the verification refuses the chain rather than repairing it
        tri = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        gens = list(tri.gens) + [tri.gens[0] + tri.gens[1]]
        plain = FreeModuleShape.plain(1)
        rels = [ModuleElement.from_polynomials(plain, [g]) for g in gens]
        with pytest.raises(InvariantViolation, match="resolution not minimal"):
            _resolve(ring, (0,), rels, tri.gb().hilbert_numerator)


class TestHilbert:
    def test_triangle_data(self, ring):
        tri = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        data = hilbert_function(tri)
        assert data.values[:4] == (1, 3, 3, 3)
        assert data.constant() == 3
        assert data.agreement_degree == 1

    def test_curve_polynomial(self, ring):
        quartic = Ideal(ring, [ring.random_form(4, random.Random(9))])
        data = hilbert_function(quartic)
        # d*e - d(d-3)/2 for a degree-d plane curve
        assert evaluate_polynomial(data.polynomial, 10) == 4 * 10 - 2
        assert not data.is_constant_polynomial()

    def test_routes_cross_checked_on_random_ideals(self, ring):
        rng = random.Random(13)
        for _ in range(5):
            gens = [ring.random_form(rng.randrange(1, 4), rng) for _ in range(3)]
            ideal = Ideal(ring, gens)
            data = hilbert_function(ideal)
            for e in range(len(data.values)):
                assert data.values[e] == oracles.quotient_dim(gens, e)

    def test_unsaturated_input_still_exact(self, ring):
        tri = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        square = ideal_product(tri, tri)
        data = hilbert_function(square)
        assert data.values[0] == 1
        # the resolution was checked against N when built; spot check the
        # window size
        assert len(data.values) >= 7

    def test_resolution_numerator(self, ring):
        # 1 - 3t^2 + 2t^3 for three points; 3t^2 - 2t^3 for their ideal
        tri = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        assert resolve_quotient(tri).numerator == (1, 0, -3, 2)
        assert resolve_ideal(tri).numerator == (0, 0, 3, -2)
        assert tri.gb().hilbert_numerator == (1, 0, -3, 2)
        # S itself and the zero module, from the zero and the unit ideal
        assert resolve_quotient(Ideal(ring, ())).numerator == (1,)
        assert resolve_ideal(Ideal(ring, ())).numerator == ()
        assert resolve_quotient(Ideal.parse(ring, ["x0", "x0 + 1"])).numerator == ()

    def test_supplied_resolution_must_be_of_the_ideal(self, ring):
        tri = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        other = resolve_quotient(Ideal.parse(ring, ["x0", "x1"]))
        with pytest.raises(InvariantViolation, match="not one of S/I"):
            hilbert_function(tri, resolution=other)


class TestReport:
    def test_table_and_render(self, ring):
        tri = Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"])
        table = betti_table(resolve_quotient(tri))
        assert table.rows() == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
        assert table.pdim() == 2
        assert table.regularity() == 1
        text = table.render()
        assert "total:" in text and "." in text

    def test_zero_module_render(self, ring):
        table = betti_table(resolve_quotient(Ideal.parse(ring, ["x0", "x0 + 1"])))
        assert table.render() == "(zero module)"
        assert table.regularity() == 0
