"""Curve layer: conductor routes, certificates, constructions, fixtures."""
import random
from pathlib import Path

import pytest

from nodal import (
    CharacteristicError,
    ConductorReport,
    CurveComponent,
    CurveSpec,
    Ideal,
    NonNodalCurveError,
    ParseError,
    Ring,
    RetryBudgetExceeded,
    betti_table,
    codimension,
    conductor_from_components,
    conductor_nodal,
    determinantal_points,
    indeg,
    intersection_points_ideal,
    jacobian_ideal,
    nodal_curve_through,
    parse_fixture,
    rational_curve_implicitize,
    resolve_ideal,
    saturate,
    scheme_length,
    symbolic_square,
)
from nodal import curves, groebner

import oracles

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture
def ring():
    return Ring("x0,x1,x2", p=32003)


class TestCurveSpec:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CurveSpec([])

    def test_rejects_repeated_factor(self, ring):
        with pytest.raises(ValueError, match="repeated factor"):
            CurveSpec.from_forms([ring.parse("x0^2*x1 + x0^2*x2")])

    def test_rejects_shared_component(self, ring):
        with pytest.raises(ValueError, match="common factor"):
            CurveSpec.from_forms([ring.parse("x0*x1"), ring.parse("x0*x2")])

    def test_rejects_line_pair_conic(self, ring):
        with pytest.raises(ValueError, match="pair of lines"):
            CurveSpec.from_forms([ring.parse("x0*x1"), ring.parse("x2")])
        with pytest.raises(ValueError, match="pair of lines"):
            CurveSpec.from_forms([ring.parse("x0^2 - x1^2 + x2^2 - 2*x0*x2")])
        # the same form is fine when the list is not trusted as irreducible
        spec = CurveSpec.from_forms(
            [ring.parse("x0*x1")], components_certified=False
        )
        assert spec.degree == 2

    @pytest.mark.parametrize("p", [3, 7, 32003])
    def test_conic_rank_is_jacobian_codimension(self, p):
        # the partials of a conic are the rows of its symmetric matrix, so
        # the Jacobian codimension CurveSpec reads is the rank
        r = Ring("x0,x1,x2", p=p)
        rng = random.Random(f"conic-rank:{p}")
        seen = set()
        for _ in range(30):
            rank = rng.randint(1, 3)
            # c_1 L_1^2 + ... + c_rank L_rank^2 with independent L_i
            while True:
                forms = [r.random_linear(rng) for _ in range(3)]
                if oracles.quotient_dim(forms, 1) == 0:
                    break
            q = sum(
                (f * f * rng.randrange(1, p) for f in forms[:rank]),
                start=r.zero(),
            )
            assert oracles.conic_rank(q) == rank
            assert codimension(jacobian_ideal(q)) == rank
            seen.add(rank)
        assert seen == {1, 2, 3}

    def test_smooth_conic_accepted(self, ring):
        spec = CurveSpec.from_forms([ring.parse("x0^2 + x1^2 + x2^2 + x0*x1")])
        assert len(spec) == 1

    def test_rejects_wrong_stated_degree(self, ring):
        comp = CurveComponent(ring.parse("x0"), 2)
        with pytest.raises(ValueError, match="degree"):
            CurveSpec([comp])

    def test_rejects_wrong_variable_count(self):
        R = Ring("x,y", p=32003)
        with pytest.raises(ValueError, match="three variables"):
            CurveSpec.from_forms([R.parse("x")])

    def test_total_form_and_degree(self, ring):
        spec = CurveSpec.from_forms(
            [ring.parse("x0"), ring.parse("x1^2 + x0*x2")]
        )
        assert spec.degree == 3
        assert spec.total_form == ring.parse("x0*x1^2 + x0^2*x2")
        assert spec.complementary_form(0) == ring.parse("x1^2 + x0*x2")
        assert len(spec) == 2


class TestJacobian:
    def test_euler_membership(self, ring):
        F = ring.parse("x0^3 + x1^3 + x2^3 + x0*x1*x2")
        jac = jacobian_ideal(F)
        assert jac.contains(F)

    def test_characteristic_obstruction(self):
        R = Ring("x0,x1,x2", p=3)
        with pytest.raises(CharacteristicError):
            jacobian_ideal(R.parse("x0^3 + x1^3 + x0*x1*x2"))

    def test_rejects_zero(self, ring):
        with pytest.raises(ValueError):
            jacobian_ideal(ring.zero())


class TestConductorNodal:
    def test_each_basis_computed_once(self, monkeypatch):
        """One engine run per distinct (order, generator set).

        Orders are compared by what they are, not by name, so a grevlex with
        the identity permutation counts as the ring's grevlex.
        """
        runs = []
        engine = groebner.macaulay_gb

        def counted(gens, order=None):
            gb = engine(gens, order)
            order = order or gb.ring.grevlex
            ident = (type(order).__name__, getattr(order, "perm", None),
                     getattr(order, "elim", None))
            runs.append((ident, frozenset(frozenset(f.terms.items()) for f in gens)))
            return gb

        monkeypatch.setattr(groebner, "macaulay_gb", counted)
        fx = parse_fixture((FIXTURES / "two-cubics.fix").read_text())
        rep = conductor_nodal(fx.curve.total_form)
        assert rep.delta == 9
        assert runs
        assert len(runs) == len(set(runs))

    def test_two_lines(self, ring):
        rep = conductor_nodal(ring.parse("x0*x1"))
        assert rep.delta == 1
        assert rep.regularity == 1
        assert rep.degree_d_syzygies == 1
        assert rep.h0_jump_degree == 0
        assert rep.route == "jacobian-saturation"
        assert rep.conductor.same_ideal(
            Ideal(ring, [ring.parse("x0"), ring.parse("x1")])
        )

    def test_smooth_conic_unit_conductor(self, ring):
        rep = conductor_nodal(ring.parse("x0^2 + x1^2 + x2^2"))
        assert rep.conductor.is_unit()
        assert rep.delta == 0
        assert rep.regularity == 0
        assert rep.h0_jump_degree == 1

    def test_nodal_cubic(self, ring):
        # one node at (0:0:1); irreducible so no degree-3 syzygy
        rep = conductor_nodal(ring.parse("x1^2*x2 - x0^2*x2 - x0^3"))
        assert rep.delta == 1
        assert rep.regularity == 1
        assert rep.degree_d_syzygies == 0
        assert rep.h0_jump_degree == 1

    def test_cusp_refused(self, ring):
        with pytest.raises(NonNodalCurveError, match="non-nodal"):
            conductor_nodal(ring.parse("x1^2*x2 - x0^3"))

    def test_repeated_factor_refused(self, ring):
        with pytest.raises(NonNodalCurveError, match="repeated factor"):
            conductor_nodal(ring.parse("x0^2*x1"))

    def test_one_jacobian_ideal_serves_every_check(self, ring, monkeypatch):
        # squarefreeness is read off the Jacobian ideal the saturation uses
        built = []
        jacobian = curves.jacobian_ideal

        def counted(F):
            built.append(F)
            return jacobian(F)

        def unused(f):
            raise AssertionError("conductor_nodal rebuilt the Jacobian ideal")

        monkeypatch.setattr(curves, "jacobian_ideal", counted)
        monkeypatch.setattr(curves, "curve_is_squarefree", unused)
        triangle = ring.parse("x0*x1") * ring.parse("x0 + x1 + x2")
        assert conductor_nodal(triangle).delta == 3
        assert len(built) == 1
        with pytest.raises(NonNodalCurveError, match="repeated factor"):
            conductor_nodal(ring.parse("x0^2*x1"))
        assert len(built) == 2

    def test_characteristic_refused_before_squarefreeness(self):
        # degree 7 at p = 7: the Euler relation fails, and that refusal
        # comes first, even for a form with a repeated factor
        r = Ring("x0,x1,x2", p=7)
        for text in ("x0^7 + x1^7 + x2^7 + x0*x1^3*x2^3", "x0^2*x1^5"):
            with pytest.raises(CharacteristicError):
                conductor_nodal(r.parse(text))

    def test_tacnode_refused(self, ring):
        # two conics tangent at (0:0:1): contact of order 2, not a node
        F = ring.parse("x1*x2 - x0^2") * ring.parse("x1*x2 + x0^2")
        with pytest.raises(NonNodalCurveError):
            conductor_nodal(F)


class TestTwoRoutes:
    def test_triangle(self, ring):
        forms = [ring.parse(t) for t in ("x0", "x1", "x2")]
        spec = CurveSpec.from_forms(forms)
        rep = conductor_from_components(spec)
        assert rep.route == "component-product"
        assert rep.delta == 3
        assert rep.regularity == 2
        assert rep.degree_d_syzygies == 2
        other = conductor_nodal(ring.parse("x0*x1*x2"))
        assert rep.conductor.same_ideal(other.conductor)

    def test_two_conics(self, ring):
        f1 = ring.parse("x0^2 + 2*x1^2 + 3*x2^2 + x0*x1")
        f2 = ring.parse("5*x0^2 + x1^2 + 7*x2^2 + x1*x2")
        spec = CurveSpec.from_forms([f1, f2])
        rep = conductor_from_components(spec)
        assert (rep.delta, rep.regularity, rep.degree_d_syzygies) == (4, 3, 1)
        other = conductor_nodal(f1 * f2)
        assert other.conductor.same_ideal(rep.conductor)

    def test_cubic_plus_line(self, ring):
        C = ring.parse("x1^2*x2 - x0^2*x2 - x0^3")
        L = ring.parse("x0 + x1 + 17*x2")
        spec = CurveSpec.from_forms([C, L])
        rep = conductor_from_components(spec)
        assert (rep.delta, rep.regularity, rep.degree_d_syzygies) == (4, 3, 1)
        assert conductor_nodal(C * L).conductor.same_ideal(rep.conductor)

    def test_hint_shortcuts_the_component_route(self, ring):
        # handing the line's unit conductor changes nothing but the work
        hint = Ideal(ring, [ring.one()])
        comps = [
            CurveComponent.from_form(ring.parse("x0"), hint),
            CurveComponent.from_form(ring.parse("x1"), hint),
        ]
        rep = conductor_from_components(CurveSpec(comps))
        assert rep.conductor.same_ideal(
            Ideal(ring, [ring.parse("x0"), ring.parse("x1")])
        )
        assert rep.route == "component-product"

    def test_single_component_hint_route(self, ring):
        pts = Ideal(ring, [ring.parse("x0"), ring.parse("x1")])
        comp = CurveComponent.from_form(ring.parse("x1^2*x2 - x0^2*x2 - x0^3"), pts)
        rep = conductor_from_components(CurveSpec([comp]))
        assert rep.route == "hint"
        assert rep.delta == 1


class TestSingularSet:
    def test_cuspidal_component_with_hint(self, ring):
        # cuspidal cubic with its reduced singular point supplied plus a line:
        # the component blend saturates hint * line + cubic * (x2), the
        # reduced singular set when the hints are reduced point ideals
        cusp_pt = Ideal(ring, [ring.parse("x0"), ring.parse("x1")])
        comps = [
            CurveComponent.from_form(ring.parse("x1^2*x2 - x0^3"), cusp_pt),
            CurveComponent.from_form(ring.parse("x2")),
        ]
        rep = conductor_from_components(CurveSpec(comps))
        # cusp at (0:0:1) plus the line meeting the cubic at (0:1:0) thrice
        assert rep.delta == 4
        assert scheme_length(rep.conductor) == 4
        assert [str(g) for g in rep.conductor.gb().elements] == [
            "x1*x2",
            "x0*x2",
            "x0^3",
        ]


class TestMeetingLocus:
    def test_single_component_is_unit(self, ring):
        spec = CurveSpec.from_forms([ring.parse("x0^2 + x1*x2")])
        assert intersection_points_ideal(spec).is_unit()

    def test_cubic_plus_line_collinear_points(self, ring):
        C = ring.parse("x1^2*x2 - x0^2*x2 - x0^3")
        L = ring.parse("x0 + x1 + 17*x2")
        spec = CurveSpec.from_forms([C, L])
        I = intersection_points_ideal(spec)
        assert scheme_length(I) == 3
        table = betti_table(resolve_ideal(I))
        assert table.regularity() == 3
        assert table.beta(1, 4) == 1

    def test_triangle_vertices(self, ring):
        spec = CurveSpec.from_forms([ring.parse(t) for t in ("x0", "x1", "x2")])
        I = intersection_points_ideal(spec)
        assert I.same_ideal(conductor_from_components(spec).conductor)


class TestImplicitize:
    def test_degree_four(self):
        spec = rational_curve_implicitize(4, seed=1)
        comp = spec.components[0]
        assert comp.degree == 4
        rep = conductor_nodal(comp.form)
        assert rep.delta == 3
        assert rep.regularity == 2
        assert rep.degree_d_syzygies == 0
        assert comp.conductor_hint.same_ideal(rep.conductor)

    def test_degree_five(self):
        spec = rational_curve_implicitize(5, seed=1)
        rep = conductor_nodal(spec.components[0].form)
        assert rep.delta == 6
        assert rep.regularity == 3

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            rational_curve_implicitize(3)


class TestDeterminantal:
    def test_m_two(self):
        pts = determinantal_points(2, seed=0)
        assert scheme_length(pts) == 19
        table = betti_table(resolve_ideal(pts))
        assert table.regularity() == 7
        assert table.beta(1, 7) == 1
        assert table.beta(1, 8) == 1
        assert indeg(pts) == 5

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            determinantal_points(1)


class TestCurveSearch:
    def test_triangle_vertices_at_degree_three(self, ring):
        pts = Ideal(
            ring,
            [ring.parse("x0*x1"), ring.parse("x0*x2"), ring.parse("x1*x2")],
        )
        assert indeg(symbolic_square(pts)) == 3
        spec = nodal_curve_through(pts, 3, seed=0)
        assert spec is not None
        assert spec.degree == 3
        assert not spec.components_certified
        assert spec.components[0].conductor_hint.same_ideal(pts)

    def test_triangle_vertices_at_degree_four(self, ring):
        pts = Ideal(
            ring,
            [ring.parse("x0*x1"), ring.parse("x0*x2"), ring.parse("x1*x2")],
        )
        spec = nodal_curve_through(pts, 4, seed=0)
        assert spec is not None
        rep = conductor_nodal(spec.components[0].form)
        assert rep.conductor.same_ideal(pts)

    def test_degree_below_square_rejected(self, ring):
        pts = Ideal(
            ring,
            [ring.parse("x0*x1"), ring.parse("x0*x2"), ring.parse("x1*x2")],
        )
        with pytest.raises(ValueError, match="degree"):
            nodal_curve_through(pts, 2)

    def test_unsaturated_points_rejected(self, ring):
        # the point (0:0:1) thickened by the irrelevant ideal
        bulk = Ideal(ring, [ring.parse(t) for t in
                            ("x0^2", "x0*x1", "x1^2", "x0*x2", "x1*x2")])
        with pytest.raises(ValueError, match="saturated"):
            nodal_curve_through(bulk, 4)


class TestFixtures:
    def test_component_fixture_with_hint(self):
        fx = parse_fixture(
            "# comment\n"
            "ring p=32003 vars=x0,x1,x2\n"
            "component: x0\n"
            "conductor_hint: 1\n"
            "component: x1\n"
        )
        assert fx.ideal is None
        assert len(fx.curve) == 2
        assert fx.curve.components[0].conductor_hint.is_unit()
        assert fx.curve.components[1].conductor_hint is None
        assert fx.curve.components_certified

    def test_implicit_fixture_uncertified(self):
        fx = parse_fixture("ring p=32003 vars=x0,x1,x2\nimplicit: x0*x1")
        assert fx.curve is not None
        assert not fx.curve.components_certified
        assert fx.curve.degree == 2

    def test_generator_fixture(self):
        fx = parse_fixture(
            "ring p=32003 vars=x0,x1,x2\ngenerator: x0^2\ngenerator: x1\n"
        )
        assert fx.curve is None
        assert len(fx.ideal.gens) == 2

    def test_prime_override(self):
        fx = parse_fixture(
            "ring p=32003 vars=x0,x1,x2\ngenerator: x0", prime=32009
        )
        assert fx.ring.p == 32009

    def test_prime_limit(self):
        text = "ring p=2147483659 vars=x0,x1,x2\ngenerator: x0"
        with pytest.raises(ParseError):
            parse_fixture(text)
        with pytest.raises(CharacteristicError):
            parse_fixture(text.replace("2147483659", "32003"), prime=2147483659)

    def test_multi_generator_hint(self, ring):
        fx = parse_fixture(
            "ring p=32003 vars=x0,x1,x2\n"
            "component: x1^2*x2 - x0^3\n"
            "conductor_hint: x0; x1\n"
        )
        hint = fx.curve.components[0].conductor_hint
        assert hint.same_ideal(Ideal(ring, [ring.parse("x0"), ring.parse("x1")]))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "generator: x0",
            "ring p=32003\ngenerator: x0",
            "ring p=32003 vars=x0,x1,x2",
            "ring p=32003 vars=x0,x1,x2\nconductor_hint: x0",
            "ring p=32003 vars=x0,x1,x2\nimplicit: x0\nimplicit: x1",
            "ring p=32003 vars=x0,x1,x2\nimplicit: x0\ngenerator: x1",
            "ring p=32003 vars=x0,x1,x2\nnonsense: x0",
            "ring p=32003 vars=x0,x1,x2\nno separator",
        ],
    )
    def test_malformed_refused(self, text):
        with pytest.raises(ParseError):
            parse_fixture(text)

    def test_report_dict_shape(self, ring):
        rep = conductor_nodal(ring.parse("x0*x1"))
        d = rep.as_dict()
        assert d["delta"] == 1
        assert d["route"] == "jacobian-saturation"
        assert sorted(d) == list(d)
