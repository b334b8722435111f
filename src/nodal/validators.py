"""Statement validators: each one checks a published claim end to end.

Every validator returns a VerdictReport whose expected side is what the
statement predicts and whose computed side is what actually came out of
the machinery, so a failure names the exact quantity that broke.  The
registry at the bottom maps statement ids to seeded runner functions used
by the command line; runners that build generic input record their seed
in the report and retry against explicit certificates.
"""
from __future__ import annotations

import random
from math import comb

from .curves import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    ConductorReport,
    CurveSpec,
    _component_conductor,
    conductor_from_components,
    conductor_nodal,
    default_ring,
    determinantal_points,
    intersection_points_ideal,
    jacobian_ideal,
    nodal_curve_through,
    rational_curve_implicitize,
)
from .errors import InvariantViolation, NonNodalCurveError, RetryBudgetExceeded
from .groebner import FreeModuleShape, ModuleElement, syzygy_generators
from .ideals import (
    Ideal,
    _numerator_sum,
    _series_coefficient,
    codimension,
    ideal_sum,
    indeg,
    intersect,
    quotient,
    saturate,
    scheme_length,
    symbolic_square,
)
from .report import VerdictReport, betti_table
from .resolution import resolve_ideal, resolve_presented, resolve_quotient
from .ring import DEFAULT_DEGREE_CAP, Polynomial, Ring


def _ideal_regularity(a: Ideal) -> int:
    if a.is_unit():
        return 0
    return betti_table(resolve_ideal(a)).regularity()


# ---------------------------------------------------------------------------
# Theorem-level checks


def verify_regularity_theorem(
    report: ConductorReport,
    spec: CurveSpec,
    sandwich: Ideal | None = None,
) -> VerdictReport:
    """Regularity and syzygy-count laws for a conductor report.

    Checks that the conductor regularity stays below the curve degree,
    that strictness matches irreducibility, and that the number of minimal
    degree-d syzygies is one less than the component count.  For reducible
    curves the same regularity and syzygy count are checked for any ideal
    sandwiched between the conductor and the ideal of points where
    components meet; the meeting locus itself is used when no intermediate
    ideal is supplied.
    """
    d = report.curve_degree
    reg = report.regularity
    computed: dict = {"regularity": reg, "curve_degree": d}
    expected: dict = {"regularity_at_most_d_minus_1": True}
    notes: list[str] = []
    computed["regularity_at_most_d_minus_1"] = reg <= d - 1

    if spec.components_certified:
        ell = len(spec)
        computed["components"] = ell
        computed["strict_iff_irreducible"] = (reg < d - 1) == (ell == 1)
        computed["degree_d_syzygies"] = report.degree_d_syzygies
        expected["strict_iff_irreducible"] = True
        expected["degree_d_syzygies"] = ell - 1
    else:
        notes.append(
            "component count uncertified; irreducibility read from the"
            " vanishing degree-d syzygy count"
        )
        irr = report.degree_d_syzygies == 0
        computed["irreducible_reading"] = irr
        computed["strict_iff_irreducible"] = (reg < d - 1) == irr
        expected["strict_iff_irreducible"] = True

    if spec.components_certified and len(spec) >= 2:
        meet = intersection_points_ideal(spec)
        J = meet if sandwich is None else sandwich
        chain = J.contains_ideal(report.conductor) and meet.contains_ideal(J)
        computed["sandwich_chain"] = chain
        expected["sandwich_chain"] = True
        table = betti_table(resolve_ideal(J))
        computed["sandwich_regularity"] = table.regularity()
        computed["sandwich_degree_d_syzygies"] = table.beta(1, d)
        expected["sandwich_regularity"] = d - 1
        expected["sandwich_degree_d_syzygies"] = len(spec) - 1
    elif sandwich is not None:
        notes.append(
            "sandwich ideal ignored: needs a certified reducible"
            " component list"
        )
    return VerdictReport.from_comparison(
        "regularity-syzygy", report.conductor.ring.p, computed, expected, notes
    )


def adjoint_completeness_check(
    report: ConductorReport, certified_irreducible: bool | None = None
) -> VerdictReport:
    """Nodes of an irreducible curve impose independent conditions.

    In degree d-3 the conductor cuts out a space of the expected
    codimension delta, i.e. the adjoint system has dimension
    C(d-1, 2) - delta.
    """
    d = report.curve_degree
    delta = report.delta
    notes: list[str] = []
    computed: dict = {"delta": delta, "curve_degree": d}
    expected: dict = {}
    if certified_irreducible is None:
        notes.append(
            "irreducibility read from the vanishing degree-d syzygy count"
        )
        computed["irreducible"] = report.degree_d_syzygies == 0
    else:
        computed["irreducible"] = certified_irreducible
    expected["irreducible"] = True
    ambient = comb(d - 1, 2) if d >= 3 else 0
    conditions = report.conductor.quotient_dim(d - 3) if d >= 3 else 0
    computed["adjoint_dimension"] = ambient - conditions
    computed["conditions_in_degree_d_minus_3"] = conditions
    expected["adjoint_dimension"] = ambient - delta
    expected["conditions_in_degree_d_minus_3"] = delta
    return VerdictReport.from_comparison(
        "adjoint-conditions", report.conductor.ring.p, computed, expected, notes
    )


def _least_syzygy_degree(jac: Ideal, d: int) -> int:
    """Least degree of a syzygy of the k nonzero partials of a degree-d form.

    0 -> Syz -> S(-(d-1))^k -> J -> 0 is exact, so Syz is nonzero in degree
    e exactly when k dim S_{e-d+1} > dim J_e, both read off the Hilbert
    series of J.  The Koszul syzygies put that degree at most 2(d - 1).
    """
    n, k = jac.ring.nvars, len(jac.gens)
    for e in range(d - 1, 2 * (d - 1) + 1):
        if k * _series_coefficient((1,), n, e - d + 1) > jac.graded_dim(e):
            return e
    raise InvariantViolation("the partials have no Koszul syzygy")


def jacobian_syzygy_analysis(
    F: Polynomial, reducible: bool | None = None
) -> VerdictReport:
    """Degree bound for syzygies of the partials of a nodal curve.

    mu is the common coefficient degree of a minimal syzygy of lowest
    degree; it is at least d-2, with equality exactly for reducible
    curves.  Pass reducible=None when the component count is unknown; the
    equality clause is then reported as a reading, not asserted.
    """
    jac = jacobian_ideal(F)
    ring = F.ring
    d = F.homogeneous_degree()
    if len(jac.gens) < ring.nvars:
        # a vanished partial is killed by a coefficient of degree 0
        mu = 0
    elif len(jac.gens) < 2:
        raise ValueError("the partials admit no syzygy to measure")
    else:
        mu = _least_syzygy_degree(jac, d) - (d - 1)
    computed: dict = {"mu": mu, "curve_degree": d}
    expected: dict = {"mu_at_least_d_minus_2": True}
    notes: list[str] = []
    computed["mu_at_least_d_minus_2"] = mu >= d - 2
    if reducible is None:
        notes.append(
            "reducibility unknown; equality case reported but not asserted"
        )
        computed["equality_reading"] = mu == d - 2
    else:
        computed["equality_iff_reducible"] = (mu == d - 2) == reducible
        expected["equality_iff_reducible"] = True
    return VerdictReport.from_comparison(
        "jacobian-syzygy", ring.p, computed, expected, notes
    )


def _quotient_indeg(inner: Ideal, outer: Ideal, bound: int) -> int:
    """Least degree where outer strictly exceeds inner, outer containing inner."""
    for e in range(bound + 2):
        if outer.quotient_dim(e) < inner.quotient_dim(e):
            return e
    raise ValueError("the two ideals agree through the scanned range")


def linkage_regularity(forms) -> VerdictReport:
    """Regularity of an unmixed almost complete intersection, three ways.

    The first two forms must be a regular sequence a contained in the
    ideal I = unmixed part of all three (the saturation, in three
    variables).  reg S/I is computed directly, by the colon formula
    reg S/a - indeg((a : f3)/a), and, when the last form has maximal
    degree, by the same formula with the ideal of entries of a minimal
    syzygy matrix of the three forms in place of the colon.
    """
    f1, f2, f3 = forms
    ring = f1.ring
    for f in forms:
        if not f or not f.is_homogeneous():
            raise ValueError("need nonzero forms")
    a = Ideal(ring, [f1, f2])
    if codimension(a) != 2:
        raise ValueError("the first two forms must be a regular sequence")
    J = Ideal(ring, [f1, f2, f3])
    if codimension(J) != 2:
        raise ValueError("the three forms must still cut out a point scheme")
    I = saturate(J)
    d1, d2, d3 = (f.homogeneous_degree() for f in forms)
    direct = resolve_quotient(I).regularity()
    reg_a = resolve_quotient(a).regularity()
    colon = quotient(a, f3)
    by_colon = reg_a - _quotient_indeg(a, colon, reg_a)

    computed: dict = {
        "direct": direct,
        "ci_regularity": reg_a,
        "colon_formula": by_colon,
    }
    expected: dict = {
        "ci_regularity": d1 + d2 - 2,
        "colon_formula": direct,
    }
    notes: list[str] = []
    if d3 >= max(d1, d2):
        syz = syzygy_generators([f1, f2, f3])
        entries = Ideal(
            ring, [z.component(r) for z in syz for r in range(3)]
        )
        by_entries = reg_a - _quotient_indeg(a, ideal_sum(a, entries), reg_a)
        computed["entry_formula"] = by_entries
        expected["entry_formula"] = direct
    else:
        notes.append(
            "entry formula skipped: the last form does not have maximal"
            " degree"
        )
    return VerdictReport.from_comparison(
        "linkage", ring.p, computed, expected, notes
    )


def conductor_sequence_check(
    spec: CurveSpec, component: int = 0, seed: int = 0
) -> VerdictReport:
    """Splitting one component off a curve: exactness in Hilbert functions.

    The conductor of the whole curve sits in a short exact sequence with
    the shifted conductors of the chosen component and of the rest, with
    the twisted ring as kernel; the check is degreewise dimension
    bookkeeping over a window, plus the regularity bound the sequence
    implies and the principal-intersection identity its proof rests on.
    """
    if len(spec) < 2:
        raise ValueError("sequence check needs at least two components")
    if not 0 <= component < len(spec):
        raise ValueError(f"component must lie in 0..{len(spec) - 1}")
    ring = spec.ring
    d = spec.degree
    comp = spec.components[component]
    di = comp.degree
    cond_i = _component_conductor(comp, seed)
    rest = CurveSpec(
        [c for j, c in enumerate(spec.components) if j != component],
        components_certified=spec.components_certified,
    )
    cond_rest = conductor_from_components(rest, seed).conductor
    whole = conductor_from_components(spec, seed)

    window = range(0, d + 5)
    identity = all(
        whole.conductor.graded_dim(e)
        == cond_rest.graded_dim(e - di)
        + cond_i.graded_dim(e - (d - di))
        - (len(ring.monomials_of_degree(e - d)) if e >= d else 0)
        for e in window
    )
    bound = max(d - 1, _ideal_regularity(cond_i) + d - di)
    gi = spec.complementary_form(component)
    principal = intersect(
        Ideal(ring, [comp.form]), Ideal(ring, [gi])
    ).same_ideal(Ideal(ring, [spec.total_form]))

    computed = {
        "hilbert_identity": identity,
        "window_top": d + 4,
        "regularity": whole.regularity,
        "regularity_bound": bound,
        "within_bound": whole.regularity <= bound,
        "principal_intersection_is_total": principal,
    }
    expected = {
        "hilbert_identity": True,
        "within_bound": True,
        "principal_intersection_is_total": True,
    }
    return VerdictReport.from_comparison(
        "component-sequence", ring.p, computed, expected
    )


def partial_normalization_report(spec: CurveSpec, seed: int = 0) -> VerdictReport:
    """Invariants of B/A for the product-of-components normalization step.

    B is the product of the component coordinate rings, A the diagonal
    image of the curve's own ring; their quotient starts in degree 0 with
    dimension one less than the component count, has regularity at most
    d-2, and its degree-0 dimension equals the number of minimal degree-d
    syzygies of the conductor.  The regularity law ties the conductor
    regularity to indeg(B/A).
    """
    ring = spec.ring
    ell = len(spec)
    if ell < 2:
        return VerdictReport.from_comparison(
            "partial-normalization",
            ring.p,
            {"components": 1},
            {},
            ("single component: B equals A, nothing to compare",),
        )
    d = spec.degree
    # HS(B/A) = sum_i HS(S/F_i) - HS(S/F), so its numerator is the same sum
    n_ba = _numerator_sum(
        *((1, Ideal(ring, [c.form]).gb().hilbert_numerator) for c in spec.components),
        (-1, Ideal(ring, [spec.total_form]).gb().hilbert_numerator),
    )
    dim0 = _series_coefficient(n_ba, ring.nvars, 0)
    indeg_ba = next(
        e for e in range(d + 2) if _series_coefficient(n_ba, ring.nvars, e) > 0
    )
    # B/A is B's generators e_0, ..., e_{ell-1} modulo F_i e_i and the
    # diagonal e_0 + ... + e_{ell-1}.  That unit relation eliminates
    # e_0 = -(e_1 + ... + e_{ell-1}), which leaves the minimal presentation
    # on e_1, ..., e_{ell-1}: relations F_i e_i and F_0 (e_1 + ... + e_{ell-1}).
    twists = (0,) * (ell - 1)
    shape = FreeModuleShape(ell - 1, twists)
    zero = ring.zero()
    rels = []
    for i, c in enumerate(spec.components[1:]):
        cols = [zero] * (ell - 1)
        cols[i] = c.form
        rels.append(ModuleElement.from_polynomials(shape, cols))
    f0 = spec.components[0].form
    rels.append(ModuleElement.from_polynomials(shape, [f0] * (ell - 1)))
    res = resolve_presented(ring, twists, rels, n_ba)
    reg_ba = res.regularity()

    rep = conductor_from_components(spec, seed)
    computed = {
        "components": ell,
        "dim_degree_zero": dim0,
        "indeg": indeg_ba,
        "regularity": reg_ba,
        "regularity_at_most_d_minus_2": reg_ba <= d - 2,
        "duality_syzygy_count": rep.degree_d_syzygies,
        "regularity_law": rep.regularity == d - 1 - indeg_ba,
    }
    expected = {
        "dim_degree_zero": ell - 1,
        "indeg": 0,
        "regularity_at_most_d_minus_2": True,
        "duality_syzygy_count": dim0,
        "regularity_law": True,
    }
    return VerdictReport.from_comparison(
        "partial-normalization", ring.p, computed, expected
    )


# ---------------------------------------------------------------------------
# Seeded statement runners behind the command line


def _runner_ring(prime: int, cap: int, degree: int):
    """Ring for a runner, bumping the prime when it divides the degree."""
    notes = []
    if degree % prime == 0:
        notes.append(
            f"characteristic {prime} divides the degree {degree};"
            f" reran at {SECOND_PRIME}"
        )
        prime = SECOND_PRIME
    return default_ring(prime, cap), notes


def _generic_lines(ring: Ring, n: int, rng) -> CurveSpec:
    for _ in range(10):
        try:
            return CurveSpec.from_forms(
                [ring.random_linear(rng) for _ in range(n)]
            )
        except ValueError:
            continue
    raise RetryBudgetExceeded("no generic line arrangement found")


def _generic_conic_pair(ring: Ring, rng) -> CurveSpec:
    for _ in range(10):
        try:
            # CurveSpec refuses a conic that is a line pair
            spec = CurveSpec.from_forms(
                [ring.random_form(2, rng) for _ in range(2)]
            )
            conductor_nodal(spec.total_form, rng.randrange(1 << 30))
            return spec
        except (ValueError, NonNodalCurveError):
            continue
    raise RetryBudgetExceeded("no transverse conic pair found")


def _cubic_plus_line(ring: Ring) -> CurveSpec:
    return CurveSpec.from_forms(
        [
            ring.parse("x1^2*x2 - x0^2*x2 - x0^3"),
            ring.parse("x0 + x1 + 17*x2"),
        ]
    )


def _spec_from_fixture(fixture):
    if fixture.curve is None:
        raise ValueError("this statement needs a curve fixture")
    return fixture.curve


def _runner_spec(fixture, prime: int, cap: int, degree: int, build):
    """(spec, notes): the fixture's curve, or build(ring) on a runner ring."""
    if fixture is not None:
        return _spec_from_fixture(fixture), []
    ring, notes = _runner_ring(prime, cap, degree)
    return build(ring), notes


def _stamped(verdict: VerdictReport, seed: int, notes=()) -> VerdictReport:
    """Record the runner's seed, and its notes ahead of the verdict's own."""
    verdict.seed = seed
    verdict.notes = tuple(notes) + verdict.notes
    return verdict


def run_line_arrangement(seed, prime, cap, fixture, lines: int = 3):
    if lines < 2:
        raise ValueError("an arrangement needs at least two lines")
    spec, notes = _runner_spec(
        fixture, prime, cap, lines,
        lambda ring: _generic_lines(ring, lines, random.Random(f"lines:{seed}")),
    )
    ell = len(spec)
    d = spec.degree
    rep = conductor_from_components(spec, seed)
    products = Ideal(
        spec.ring, [spec.complementary_form(i) for i in range(ell)]
    )
    res = resolve_ideal(rep.conductor)
    computed = {
        "components": ell,
        "conductor_is_product_ideal": rep.conductor.same_ideal(products),
        "resolution_twists": [list(level) for level in res.twists],
        "regularity": rep.regularity,
        "degree_d_syzygies": rep.degree_d_syzygies,
        "delta": rep.delta,
    }
    expected = {
        "conductor_is_product_ideal": True,
        "resolution_twists": [[d - 1] * ell, [d] * (ell - 1)],
        "regularity": d - 1,
        "degree_d_syzygies": ell - 1,
        "delta": comb(ell, 2),
    }
    return VerdictReport.from_comparison(
        "line-arrangement", spec.ring.p, computed, expected, notes, seed
    )


def run_rational_nodal(seed, prime, cap, fixture, curve_degree: int = 4):
    spec, notes = _runner_spec(
        fixture, prime, cap, curve_degree,
        lambda ring: rational_curve_implicitize(curve_degree, seed, ring),
    )
    d = spec.degree
    rep = conductor_nodal(spec.components[0].form, seed)
    res = resolve_ideal(rep.conductor)
    computed = {
        "delta": rep.delta,
        "regularity": rep.regularity,
        "degree_d_syzygies": rep.degree_d_syzygies,
        "resolution_twists": [list(level) for level in res.twists],
    }
    expected = {
        "delta": comb(d - 1, 2),
        "regularity": d - 2,
        "degree_d_syzygies": 0,
        "resolution_twists": [[d - 2] * (d - 1), [d - 1] * (d - 2)],
    }
    return VerdictReport.from_comparison(
        "rational-nodal", spec.ring.p, computed, expected, notes, seed
    )


def run_determinantal_points(seed, prime, cap, fixture, emm: int = 2):
    m = emm
    ring = default_ring(prime, cap)
    pts = determinantal_points(m, seed, ring)
    res = resolve_ideal(pts)
    table = betti_table(res)
    computed = {
        "delta": scheme_length(pts),
        "regularity": table.regularity(),
        "generator_degrees": sorted(res.twists[0]),
        "codimension": codimension(pts),
    }
    expected = {
        "delta": 20 * comb(m - 1, 2) + 18 * m - 17,
        "regularity": 6 * m - 5,
        "generator_degrees": [4 * m - 3] * (m + 1),
        "codimension": 2,
    }
    if m == 2:
        computed["first_syzygy_degrees"] = sorted(res.twists[1])
        expected["first_syzygy_degrees"] = [7, 8]
    return VerdictReport.from_comparison(
        "determinantal-points", ring.p, computed, expected, (), seed
    )


def run_nodal_curve_search(seed, prime, cap, fixture, emm: int = 2):
    m = emm
    ring = default_ring(prime, cap)
    pts = determinantal_points(m, seed, ring)
    delta = 20 * comb(m - 1, 2) + 18 * m - 17
    square = symbolic_square(pts)
    D = indeg(square)
    spec = nodal_curve_through(pts, D, seed)
    computed: dict = {"search_degree": D, "found": spec is not None}
    expected: dict = {"found": True}
    notes = []
    if m == 2:
        computed["symbolic_square_indeg"] = D
        expected["symbolic_square_indeg"] = 10
    if spec is not None:
        rep = conductor_nodal(spec.components[0].form, seed)
        computed.update(
            {
                "conductor_matches_points": rep.conductor.same_ideal(pts),
                "degree_d_syzygies": rep.degree_d_syzygies,
                "regularity": rep.regularity,
                "h0_jump_degree": rep.h0_jump_degree,
                "bezout_floor_ok": D * (4 * m - 3) >= m + 2 * delta,
            }
        )
        expected.update(
            {
                "conductor_matches_points": True,
                "degree_d_syzygies": 0,
                "regularity": 6 * m - 5,
                "h0_jump_degree": D - 1 - (6 * m - 5),
                "bezout_floor_ok": True,
            }
        )
    else:
        notes.append(
            f"no certified curve through the points at degree {D};"
            " genericity can fail at the minimal degree"
        )
    return VerdictReport.from_comparison(
        "nodal-curve-search", ring.p, computed, expected, notes, seed
    )


def run_two_route(seed, prime, cap, fixture):
    spec, notes = _runner_spec(fixture, prime, cap, 4, _cubic_plus_line)
    ra = conductor_from_components(spec, seed)
    rb = conductor_nodal(spec.total_form, seed)
    if len(spec) == 1:
        notes.append("single component: the two routes coincide")
    computed = {
        "same_ideal": ra.conductor.same_ideal(rb.conductor),
        "component_route": {
            "delta": ra.delta,
            "regularity": ra.regularity,
            "degree_d_syzygies": ra.degree_d_syzygies,
        },
        "jacobian_route": {
            "delta": rb.delta,
            "regularity": rb.regularity,
            "degree_d_syzygies": rb.degree_d_syzygies,
        },
    }
    expected = {
        "same_ideal": True,
        "component_route": computed["jacobian_route"],
    }
    return VerdictReport.from_comparison(
        "two-route", spec.ring.p, computed, expected, notes, seed
    )


def run_regularity_syzygy(seed, prime, cap, fixture):
    spec, notes = _runner_spec(
        fixture, prime, cap, 4,
        lambda ring: _generic_conic_pair(ring, random.Random(f"regsyz:{seed}")),
    )
    rep = conductor_from_components(spec, seed)
    return _stamped(verify_regularity_theorem(rep, spec), seed, notes)


def run_jacobian_syzygy(seed, prime, cap, fixture):
    if fixture is not None:
        spec = _spec_from_fixture(fixture)
        reducible = (len(spec) >= 2) if spec.components_certified else None
        verdict = jacobian_syzygy_analysis(spec.total_form, reducible)
        return _stamped(verdict, seed)
    ring, notes = _runner_ring(prime, cap, 4)
    rng = random.Random(f"jacsyz:{seed}")
    # one reducible and one certified-irreducible instance side by side
    pair = _generic_conic_pair(ring, rng)
    red = jacobian_syzygy_analysis(pair.total_form, True)
    irr_spec = rational_curve_implicitize(4, seed, ring)
    irr = jacobian_syzygy_analysis(irr_spec.components[0].form, False)
    computed = {
        "reducible_mu": red.computed["mu"],
        "reducible_laws": red.ok,
        "irreducible_mu": irr.computed["mu"],
        "irreducible_laws": irr.ok,
    }
    expected = {
        "reducible_mu": 2,
        "reducible_laws": True,
        "irreducible_laws": True,
    }
    return VerdictReport.from_comparison(
        "jacobian-syzygy", ring.p, computed, expected, notes, seed
    )


def run_linkage(seed, prime, cap, fixture):
    ring, notes = _runner_ring(prime, cap, 4)
    monomial = linkage_regularity(
        [ring.parse("x0^2"), ring.parse("x1^2"), ring.parse("x0*x1")]
    )
    rng = random.Random(f"linkage:{seed}")
    pair = _generic_conic_pair(ring, rng)
    partials = [
        pair.total_form.partial_derivative(v) for v in range(3)
    ]
    jac = linkage_regularity(partials)
    computed = {
        "monomial_case": monomial.computed,
        "monomial_laws": monomial.ok,
        "jacobian_case": jac.computed,
        "jacobian_laws": jac.ok,
        "jacobian_direct": jac.computed["direct"],
    }
    expected = {
        "monomial_case": {
            "direct": 1,
            "ci_regularity": 2,
            "colon_formula": 1,
            "entry_formula": 1,
        },
        "monomial_laws": True,
        "jacobian_laws": True,
        # reducible quartic: reg S/conductor = d - 2
        "jacobian_direct": 2,
    }
    return VerdictReport.from_comparison(
        "linkage", ring.p, computed, expected, notes, seed
    )


def run_adjoint_conditions(seed, prime, cap, fixture, curve_degree: int = 4):
    spec, notes = _runner_spec(
        fixture, prime, cap, curve_degree,
        lambda ring: rational_curve_implicitize(curve_degree, seed, ring),
    )
    rep = conductor_nodal(spec.total_form, seed)
    return _stamped(adjoint_completeness_check(rep), seed, notes)


def run_component_sequence(seed, prime, cap, fixture, component: int = 0):
    spec, notes = _runner_spec(fixture, prime, cap, 4, _cubic_plus_line)
    verdict = conductor_sequence_check(spec, component, seed)
    return _stamped(verdict, seed, notes)


def run_partial_normalization(seed, prime, cap, fixture):
    spec, notes = _runner_spec(
        fixture, prime, cap, 3,
        lambda ring: CurveSpec.from_forms(
            [ring.parse("x0"), ring.parse("x1"), ring.parse("x2")]
        ),
    )
    verdict = partial_normalization_report(spec, seed)
    return _stamped(verdict, seed, notes)


def run_symbolic_square(seed, prime, cap, fixture):
    ring = default_ring(prime, cap)
    triangle = Ideal(
        ring,
        [ring.parse("x0*x1"), ring.parse("x0*x2"), ring.parse("x1*x2")],
    )
    tri_indeg = indeg(symbolic_square(triangle))
    pts = determinantal_points(2, seed, ring)
    pts_indeg = indeg(symbolic_square(pts))
    computed = {
        "triangle_indeg": tri_indeg,
        "determinantal_indeg": pts_indeg,
    }
    expected = {"triangle_indeg": 3, "determinantal_indeg": 10}
    return VerdictReport.from_comparison(
        "symbolic-square", ring.p, computed, expected, (), seed
    )


STATEMENTS = {
    "line-arrangement": run_line_arrangement,
    "rational-nodal": run_rational_nodal,
    "determinantal-points": run_determinantal_points,
    "nodal-curve-search": run_nodal_curve_search,
    "two-route": run_two_route,
    "regularity-syzygy": run_regularity_syzygy,
    "jacobian-syzygy": run_jacobian_syzygy,
    "linkage": run_linkage,
    "adjoint-conditions": run_adjoint_conditions,
    "component-sequence": run_component_sequence,
    "partial-normalization": run_partial_normalization,
    "symbolic-square": run_symbolic_square,
}


def run_statement(
    statement: str,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
    cap: int = DEFAULT_DEGREE_CAP,
    fixture=None,
    **params,
) -> VerdictReport:
    """Dispatch one statement id to its runner.

    prime and cap build the rings a runner makes (`default_ring`).  With a
    fixture, the fixture's ring governs both: its p and its cap, as set where
    it was parsed (`parse_fixture`).
    """
    if statement not in STATEMENTS:
        raise KeyError(statement)
    return STATEMENTS[statement](seed, prime, cap, fixture, **params)
