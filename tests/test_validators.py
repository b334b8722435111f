"""Statement validators against worked examples with frozen values."""
import gc
from pathlib import Path

import pytest

from nodal import (
    CurveComponent,
    CurveSpec,
    Ideal,
    RetryBudgetExceeded,
    Ring,
    codimension,
    conductor_from_components,
    conductor_nodal,
    intersect,
    jacobian_ideal,
    parse_fixture,
    rational_curve_implicitize,
    saturate,
)
from nodal import validators
from nodal.groebner import GroebnerBasis
import oracles
from nodal.validators import (
    STATEMENTS,
    adjoint_completeness_check,
    conductor_sequence_check,
    jacobian_syzygy_analysis,
    linkage_regularity,
    partial_normalization_report,
    run_statement,
    verify_regularity_theorem,
)


FIXTURES = Path(__file__).parent.parent / "fixtures"
CURVE_FIXTURES = [
    p for p in sorted(FIXTURES.glob("*.fix")) if "generator:" not in p.read_text()
]


@pytest.fixture
def ring():
    return Ring("x0,x1,x2", p=32003)


def oracle_mu(F) -> int:
    """Least degree of a syzygy of the nonzero partials, minus d - 1, by
    dense linear algebra; 0 when a partial vanishes."""
    d = F.homogeneous_degree()
    live = [F.partial_derivative(v) for v in range(3)]
    live = [g for g in live if g]
    if len(live) < 3:
        return 0
    e = d - 1
    while not oracles.syzygy_dim(live, e):
        e += 1
    return e - (d - 1)


def two_conics(ring):
    return CurveSpec.from_forms(
        [
            ring.parse("x0^2 + 2*x1^2 + 3*x2^2 + x0*x1"),
            ring.parse("5*x0^2 + x1^2 + 7*x2^2 + x1*x2"),
        ]
    )


class TestRegularityTheorem:
    def test_two_conics(self, ring):
        spec = two_conics(ring)
        rep = conductor_from_components(spec)
        v = verify_regularity_theorem(rep, spec)
        assert v.ok
        assert v.computed["regularity"] == 3
        assert v.computed["degree_d_syzygies"] == 1
        assert v.computed["sandwich_regularity"] == 3
        assert v.computed["sandwich_degree_d_syzygies"] == 1

    def test_irreducible_strictness(self, ring):
        spec = rational_curve_implicitize(4, seed=1, ring=ring)
        rep = conductor_nodal(spec.total_form)
        v = verify_regularity_theorem(rep, spec)
        assert v.ok
        assert v.computed["strict_iff_irreducible"]
        assert v.expected["degree_d_syzygies"] == 0

    def test_uncertified_uses_syzygy_reading(self, ring):
        F = ring.parse("x0*x1")
        comp = CurveComponent.from_form(F)
        spec = CurveSpec([comp], components_certified=False)
        rep = conductor_nodal(F)
        v = verify_regularity_theorem(rep, spec)
        assert v.ok
        assert "degree_d_syzygies" not in v.expected
        assert any("uncertified" in n for n in v.notes)

    def test_explicit_sandwich(self, ring):
        # cubic plus line: conductor has 4 points, meeting locus 3; the
        # meeting locus itself is a legitimate intermediate ideal
        C = ring.parse("x1^2*x2 - x0^2*x2 - x0^3")
        L = ring.parse("x0 + x1 + 17*x2")
        spec = CurveSpec.from_forms([C, L])
        rep = conductor_from_components(spec)
        meet = saturate(Ideal(ring, [C, L]))
        v = verify_regularity_theorem(rep, spec, sandwich=meet)
        assert v.ok
        assert v.computed["sandwich_chain"]

    def test_bad_sandwich_fails(self, ring):
        spec = two_conics(ring)
        rep = conductor_from_components(spec)
        v = verify_regularity_theorem(
            rep, spec, sandwich=Ideal(ring, [ring.parse("x0")])
        )
        assert not v.ok
        assert not v.computed["sandwich_chain"]


class TestAdjoint:
    def test_three_nodal_quartic(self, ring):
        spec = rational_curve_implicitize(4, seed=1, ring=ring)
        rep = conductor_nodal(spec.total_form)
        v = adjoint_completeness_check(rep, certified_irreducible=True)
        assert v.ok
        assert v.computed["adjoint_dimension"] == 0

    def test_six_nodal_quintic(self, ring):
        spec = rational_curve_implicitize(5, seed=1, ring=ring)
        rep = conductor_nodal(spec.total_form)
        v = adjoint_completeness_check(rep)
        assert v.ok
        assert v.computed["adjoint_dimension"] == 0
        assert v.computed["conditions_in_degree_d_minus_3"] == 6

    def test_reducible_is_caught(self, ring):
        spec = two_conics(ring)
        rep = conductor_from_components(spec)
        v = adjoint_completeness_check(rep)
        assert not v.ok
        assert not v.computed["irreducible"]


class TestJacobianSyzygies:
    def test_two_lines_vanished_partial(self, ring):
        v = jacobian_syzygy_analysis(ring.parse("x0*x1"), reducible=True)
        assert v.ok
        assert v.computed["mu"] == 0

    def test_smooth_conic_koszul(self, ring):
        v = jacobian_syzygy_analysis(
            ring.parse("x0^2 + x1^2 + x2^2"), reducible=False
        )
        assert v.ok
        assert v.computed["mu"] == 1

    def test_nodal_cubic(self, ring):
        v = jacobian_syzygy_analysis(
            ring.parse("x1^2*x2 - x0^2*x2 - x0^3"), reducible=False
        )
        assert v.ok
        assert v.computed["mu"] == 2

    def test_conic_pair_equality_case(self, ring):
        spec = two_conics(ring)
        v = jacobian_syzygy_analysis(spec.total_form, reducible=True)
        assert v.ok
        assert v.computed["mu"] == 2

    @pytest.mark.parametrize("path", CURVE_FIXTURES, ids=lambda p: p.stem)
    def test_mu_matches_the_dense_syzygy_oracle(self, path, monkeypatch):
        # mu comes from the Hilbert series of the Jacobian ideal, with no
        # syzygy module computed; the oracle is the kernel dimension of the
        # partials' multiples, degree by degree
        def unused(gens):
            raise AssertionError("mu computed a syzygy module")

        monkeypatch.setattr(validators, "syzygy_generators", unused)
        spec = parse_fixture(path.read_text()).curve
        forms = [spec.total_form] + [c.form for c in spec.components]
        for F in forms:
            assert jacobian_syzygy_analysis(F).computed["mu"] == oracle_mu(F), F

    def test_unknown_reducibility_is_noted(self, ring):
        v = jacobian_syzygy_analysis(ring.parse("x0*x1"), reducible=None)
        assert v.ok
        assert v.computed["equality_reading"]
        assert "equality_iff_reducible" not in v.expected


class TestLinkage:
    def test_monomial_example(self, ring):
        v = linkage_regularity(
            [ring.parse("x0^2"), ring.parse("x1^2"), ring.parse("x0*x1")]
        )
        assert v.ok
        assert v.computed["direct"] == 1
        assert v.computed["ci_regularity"] == 2
        assert v.computed["colon_formula"] == 1
        assert v.computed["entry_formula"] == 1

    def test_non_maximal_degree_skips_entry_formula(self, ring):
        v = linkage_regularity(
            [ring.parse("x0^3"), ring.parse("x1^3"), ring.parse("x0*x1")]
        )
        assert v.ok
        assert v.computed["direct"] == 2
        assert v.computed["colon_formula"] == 2
        assert "entry_formula" not in v.computed
        assert any("skipped" in n for n in v.notes)

    def test_jacobian_of_reducible_quartic(self, ring):
        spec = two_conics(ring)
        partials = [spec.total_form.partial_derivative(v) for v in range(3)]
        v = linkage_regularity(partials)
        assert v.ok
        assert v.computed["direct"] == 2

    def test_rejects_non_regular_sequence(self, ring):
        with pytest.raises(ValueError, match="regular sequence"):
            linkage_regularity(
                [ring.parse("x0^2"), ring.parse("x0*x1"), ring.parse("x1^2")]
            )


class TestConductorSequence:
    def test_cubic_plus_line(self, ring):
        spec = CurveSpec.from_forms(
            [
                ring.parse("x1^2*x2 - x0^2*x2 - x0^3"),
                ring.parse("x0 + x1 + 17*x2"),
            ]
        )
        v = conductor_sequence_check(spec, 0)
        assert v.ok
        assert v.computed["regularity"] == 3
        assert v.computed["regularity_bound"] == 3

    def test_triangle_every_split(self, ring):
        spec = CurveSpec.from_forms(
            [ring.parse("x0"), ring.parse("x1"), ring.parse("x2")]
        )
        for i in range(3):
            assert conductor_sequence_check(spec, i).ok

    def test_needs_two_components(self, ring):
        spec = CurveSpec.from_forms([ring.parse("x0^2 + x1*x2")])
        with pytest.raises(ValueError):
            conductor_sequence_check(spec, 0)


class TestPartialNormalization:
    def test_two_lines(self, ring):
        spec = CurveSpec.from_forms([ring.parse("x0"), ring.parse("x1")])
        v = partial_normalization_report(spec)
        assert v.ok
        assert v.computed["dim_degree_zero"] == 1
        assert v.computed["regularity"] == 0

    def test_triangle(self, ring):
        spec = CurveSpec.from_forms(
            [ring.parse("x0"), ring.parse("x1"), ring.parse("x2")]
        )
        v = partial_normalization_report(spec)
        assert v.ok
        assert v.computed["dim_degree_zero"] == 2
        assert v.computed["duality_syzygy_count"] == 2
        assert v.computed["regularity_law"]

    def test_two_conics_regularity_law(self, ring):
        spec = two_conics(ring)
        v = partial_normalization_report(spec)
        assert v.ok
        assert v.computed["indeg"] == 0
        assert v.computed["regularity_at_most_d_minus_2"]

    def test_single_component_vacuous(self, ring):
        spec = CurveSpec.from_forms([ring.parse("x0^2 + x1*x2")])
        v = partial_normalization_report(spec)
        assert v.ok
        assert v.notes


class TestStatementRunners:
    @pytest.mark.parametrize(
        "statement",
        [s for s in STATEMENTS if s != "nodal-curve-search"],
    )
    def test_default_run_passes(self, statement):
        v = run_statement(statement, seed=0)
        assert v.ok, (statement, v.computed, v.expected)
        assert v.statement == statement

    def test_search_statement(self):
        # the heavyweight one, kept separate so a timeout is attributable
        v = run_statement("nodal-curve-search", seed=0)
        assert v.ok
        assert v.computed["symbolic_square_indeg"] == 10
        assert v.computed["regularity"] == 7
        assert v.computed["h0_jump_degree"] == 2

    @pytest.mark.parametrize("statement", list(STATEMENTS))
    def test_runner_ring_leaves_no_cached_basis(self, statement):
        # the ring a runner builds, and every basis cached in it, is freed
        # by reference counting, not by a later full cyclic collection
        def tracked_bases():
            return sum(isinstance(o, GroebnerBasis) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = tracked_bases()
            run_statement(statement, seed=0)
            assert tracked_bases() == before
        finally:
            gc.enable()

    def test_generated_conics_are_smooth(self, monkeypatch):
        # at p = 3 a random conic is often a line pair, which made the "conic
        # pair" a curve of three or four components and the verdict FAIL;
        # a generated conic must be smooth, or the run is refused
        draw = validators._generic_conic_pair
        drawn = []

        def recording(ring, rng):
            spec = draw(ring, rng)
            drawn.append(spec)
            return spec

        monkeypatch.setattr(validators, "_generic_conic_pair", recording)
        for seed in range(8):
            try:
                v = run_statement("regularity-syzygy", seed=seed, prime=3)
            except RetryBudgetExceeded:
                continue
            assert v.ok, (seed, v.computed, v.expected)
        assert drawn
        for spec in drawn:
            assert len(spec.components) == 2
            for c in spec.components:
                assert codimension(jacobian_ideal(c.form)) == 3

    def test_unknown_statement(self):
        with pytest.raises(KeyError):
            run_statement("no-such-statement")

    def test_seed_recorded(self):
        v = run_statement("line-arrangement", seed=7, lines=4)
        assert v.seed == 7
        assert v.as_dict()["seed"] == 7

    def test_line_count_parameter(self):
        v = run_statement("line-arrangement", seed=0, lines=5)
        assert v.ok
        assert v.computed["components"] == 5
        assert v.computed["delta"] == 10
