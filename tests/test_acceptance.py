"""Acceptance gate: one test per numbered criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen; without -s they still appear in captured output on
failure.
"""
import random
import time
from math import comb
from pathlib import Path

import oracles
from nodal import (
    Ideal,
    conductor_from_components,
    conductor_nodal,
    default_ring,
    determinantal_points,
    indeg,
    nodal_curve_through,
    parse_fixture,
    quotient,
    rational_curve_implicitize,
    run_statement,
    saturate,
    symbolic_square,
)
from nodal.ideals import (
    _numerator_sum,
    ideal_product,
    irrelevant_ideal,
    scheme_length,
)
from nodal.report import betti_table
from nodal.resolution import _verify_resolution, resolve_ideal, resolve_quotient
from nodal.validators import (
    adjoint_completeness_check,
    conductor_sequence_check,
    jacobian_syzygy_analysis,
    linkage_regularity,
    partial_normalization_report,
)

FIXTURE_DIR = Path(__file__).parent.parent / "fixtures"
CURVE_FIXTURES = sorted(
    p for p in FIXTURE_DIR.glob("*.fix") if p.name != "triangle-points.fix"
)


def _accept(n: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"\nACCEPT criterion-{n} {detail} {mark}", flush=True)
    assert ok, f"criterion-{n}: {detail}"


def _curve_specs(prime=None):
    for path in CURVE_FIXTURES:
        yield path.name, parse_fixture(path.read_text(), prime).curve


# --------------------------------------------------------------------------
# helpers shared with the second-prime rerun (criterion 10d)


def _lines_invariants(ring, ell: int) -> dict:
    """Integer invariants of a generic ell-line arrangement, via the
    saturated-Jacobian route."""
    rng = random.Random(f"accept-lines:{ell}")
    from nodal.validators import _generic_lines

    spec = _generic_lines(ring, ell, rng)
    d = spec.degree
    rep = conductor_nodal(spec.total_form)
    products = Ideal(
        ring, [spec.complementary_form(i) for i in range(ell)]
    )
    res = resolve_ideal(rep.conductor)
    return {
        "is_product_ideal": rep.conductor.same_ideal(products),
        "twists": [list(level) for level in res.twists],
        "regularity": rep.regularity,
        "degree_d_syzygies": rep.degree_d_syzygies,
        "delta": rep.delta,
        "expected_twists": [[d - 1] * ell, [d] * (ell - 1)],
    }


def _rational_invariants(ring, d: int) -> dict:
    spec = rational_curve_implicitize(d, seed=0, ring=ring)
    rep = conductor_nodal(spec.total_form)
    res = resolve_ideal(rep.conductor)
    return {
        "delta": rep.delta,
        "regularity": rep.regularity,
        "twists": [list(level) for level in res.twists],
        "expected_twists": [[d - 2] * (d - 1), [d - 1] * (d - 2)],
    }


def _two_route_invariants(prime=None) -> dict:
    """Two-route law plus the partial-normalization regularity formula on
    every corpus fixture."""
    out = {}
    for name, spec in _curve_specs(prime):
        d, ell = spec.degree, len(spec)
        by_components = conductor_from_components(spec)
        by_jacobian = conductor_nodal(spec.total_form)
        gb_a = sorted(str(g) for g in by_components.conductor.gb().elements)
        gb_b = sorted(str(g) for g in by_jacobian.conductor.gb().elements)
        norm = partial_normalization_report(spec)
        out[name] = {
            "degree": d,
            "components": ell,
            "routes_identical_gb": gb_a == gb_b,
            "regularity": by_components.regularity,
            "expected_regularity": d - 1,
            "degree_d_syzygies": by_components.degree_d_syzygies,
            "expected_syzygies": ell - 1,
            "regularity_law": norm.computed["regularity_law"],
            "norm_ok": norm.ok,
        }
    return out


def _fixture_failures(stats: dict) -> list:
    bad = []
    for name, s in stats.items():
        if not (
            s["routes_identical_gb"]
            and s["regularity"] == s["expected_regularity"]
            and s["degree_d_syzygies"] == s["expected_syzygies"]
            and s["regularity_law"]
            and s["norm_ok"]
        ):
            bad.append(name)
    return bad


# --------------------------------------------------------------------------


def test_criterion_01_line_arrangements():
    t0 = time.perf_counter()
    ring = default_ring()
    failures = []
    for ell in range(2, 6):
        inv = _lines_invariants(ring, ell)
        ok = (
            inv["is_product_ideal"]
            and inv["twists"] == inv["expected_twists"]
            and inv["regularity"] == ell - 1
            and inv["degree_d_syzygies"] == ell - 1
            and inv["delta"] == comb(ell, 2)
        )
        ok = ok and run_statement("line-arrangement", seed=0, lines=ell).ok
        if not ok:
            failures.append((ell, inv))
    elapsed = time.perf_counter() - t0
    _accept(
        1,
        not failures and elapsed < 2.0,
        f"lines l=2..5: singular-set = product ideal, resolution shape, "
        f"reg = d-1, beta_1d = l-1 ({elapsed:.1f}s < 2s)",
    )


def test_criterion_02_determinantal_m2_chain():
    t0 = time.perf_counter()
    ring = default_ring()
    I = determinantal_points(2, seed=0, ring=ring)
    res = resolve_ideal(I)
    tab = betti_table(res)
    checks = {
        "delta=19": scheme_length(I) == 19,
        "3 quintics": res.twists[0] == (5, 5, 5),
        "beta_17=1": tab.beta(1, 7) == 1,
        "beta_18=1": tab.beta(1, 8) == 1,
        "reg=7": tab.regularity() == 7,
    }
    sq = symbolic_square(I)
    checks["indeg(sq)=10"] = indeg(sq) == 10
    curve = nodal_curve_through(I, 10, seed=0, budget=10)
    checks["curve found"] = curve is not None
    if curve is not None:
        rep = conductor_nodal(curve.total_form)
        checks["conductor = points"] = rep.conductor.same_ideal(I)
        checks["beta_1,10(C')=0"] = rep.degree_d_syzygies == 0
    elapsed = time.perf_counter() - t0
    bad = [k for k, v in checks.items() if not v]
    _accept(
        2,
        not bad and elapsed < 2.0,
        f"19 determinantal points, symbolic square, certified degree-10 "
        f"nodal curve {bad or ''}({elapsed:.1f}s < 2s)",
    )


def test_criterion_03_determinantal_m3():
    t0 = time.perf_counter()
    ring = default_ring()
    I = determinantal_points(3, seed=0, ring=ring)
    res = resolve_ideal(I)
    ok = (
        scheme_length(I) == 57
        and res.twists[0] == (9, 9, 9, 9)
        and betti_table(res).regularity() == 13
    )
    elapsed = time.perf_counter() - t0
    _accept(
        3,
        ok and elapsed < 2.0,
        f"m=3: delta=57, reg=13, four degree-9 generators "
        f"({elapsed:.1f}s < 2s)",
    )


def test_criterion_04_rational_nodal_curves():
    ring = default_ring()
    failures = []
    times = []
    for d in (4, 5):
        t0 = time.perf_counter()
        inv = _rational_invariants(ring, d)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        ok = (
            inv["delta"] == comb(d - 1, 2)
            and inv["regularity"] == d - 2
            and inv["twists"] == inv["expected_twists"]
            and elapsed < 2.0
        )
        if not ok:
            failures.append((d, inv))
    _accept(
        4,
        not failures,
        f"implicitized rational curves d=4,5: delta=C(d-1,2), resolution "
        f"shape, reg=d-2 ({times[0]:.1f}s, {times[1]:.1f}s each < 2s)",
    )


def test_criterion_05_two_route_corpus():
    t0 = time.perf_counter()
    stats = _two_route_invariants()
    elapsed = time.perf_counter() - t0
    bad = _fixture_failures(stats)
    degrees_ok = all(s["degree"] <= 7 for s in stats.values())
    _accept(
        5,
        len(stats) >= 10 and degrees_ok and not bad and elapsed < 2.0,
        f"{len(stats)} reducible all-nodal fixtures d<=7: identical reduced "
        f"GBs both routes, reg=d-1, beta_1d=l-1, reg=d-1-indeg(B/A) "
        f"{bad or ''}({elapsed:.1f}s < 2s)",
    )


def _certified_irreducible_instances(ring):
    """(label, form) pairs with an irreducibility certificate: smooth
    (unit conductor, a smooth plane curve is connected) or beta_1d = 0."""
    out = []
    conic = ring.parse("x0^2 + x1^2 + x2^2")
    fermat = ring.parse("x0^3 + x1^3 + x2^3")
    for label, F in (("smooth-conic", conic), ("smooth-cubic", fermat)):
        assert conductor_nodal(F).conductor.is_unit()
        out.append((label, F))
    nodal_cubic = ring.parse("x1^2*x2 - x0^2*x2 - x0^3")
    assert conductor_nodal(nodal_cubic).degree_d_syzygies == 0
    out.append(("nodal-cubic", nodal_cubic))
    for d in (4, 5):
        F = rational_curve_implicitize(d, seed=0, ring=ring).total_form
        assert conductor_nodal(F).degree_d_syzygies == 0
        out.append((f"rational-d{d}", F))
    return out


def test_criterion_06_jacobian_syzygies_and_linkage():
    t0 = time.perf_counter()
    ring = default_ring()
    failures = []

    reducible = []
    for name, spec in _curve_specs():
        if name in (
            "two-lines.fix",
            "triangle.fix",
            "cubic-line.fix",
            "two-conics.fix",
            "five-lines.fix",
            "two-cubics.fix",
        ):
            reducible.append((name, spec.total_form, spec.degree))
    assert len(reducible) >= 5
    for name, F, d in reducible:
        v = jacobian_syzygy_analysis(F, reducible=True)
        if not (v.ok and v.computed["mu"] == d - 2):
            failures.append((name, v.computed))

    irreducible = _certified_irreducible_instances(ring)
    assert len(irreducible) >= 5
    for name, F in irreducible:
        d = F.homogeneous_degree()
        v = jacobian_syzygy_analysis(F, reducible=False)
        if not (v.ok and v.computed["mu"] >= d - 1):
            failures.append((name, v.computed))

    # three-way linkage agreement on the partials, wherever some cyclic
    # rotation makes the first two a regular sequence
    agreements = 0
    candidates = [(n, F) for n, F, _ in reducible] + irreducible
    for name, F in candidates:
        partials = [F.partial_derivative(v) for v in range(3)]
        if not all(partials):
            continue
        for shift in range(3):
            forms = partials[shift:] + partials[:shift]
            try:
                v = linkage_regularity(forms)
            except ValueError:
                continue
            if not (v.ok and "entry_formula" in v.computed):
                failures.append((name, "linkage", v.computed))
            agreements += 1
            break
    elapsed = time.perf_counter() - t0
    _accept(
        6,
        not failures and agreements >= 5,
        f"mu = d-2 on {len(reducible)} reducible, mu >= d-1 on "
        f"{len(irreducible)} certified-irreducible, linkage formulas agree "
        f"three ways on {agreements} instances {failures or ''}"
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_adjoint_conditions():
    t0 = time.perf_counter()
    ring = default_ring()
    failures = []
    instances = [("nodal-cubic", ring.parse("x1^2*x2 - x0^2*x2 - x0^3"))]
    for d in (4, 5, 6):
        F = rational_curve_implicitize(d, seed=0, ring=ring).total_form
        instances.append((f"rational-d{d}", F))
    for name, F in instances:
        rep = conductor_nodal(F)
        v = adjoint_completeness_check(rep, certified_irreducible=True)
        cond_ok = v.computed["conditions_in_degree_d_minus_3"] == rep.delta
        if not (v.ok and cond_ok):
            failures.append((name, v.computed))
    elapsed = time.perf_counter() - t0
    _accept(
        7,
        not failures,
        f"adjoint conditions independent in degree d-3 (HF = delta) on "
        f"{len(instances)} irreducible nodal curves {failures or ''}"
        f"({elapsed:.1f}s)",
    )


def test_criterion_08_component_sequence():
    t0 = time.perf_counter()
    failures = []
    for name, spec in _curve_specs():
        v = conductor_sequence_check(spec, 0)
        if not v.ok:
            failures.append((name, v.computed))
    elapsed = time.perf_counter() - t0
    _accept(
        8,
        not failures,
        f"degreewise Hilbert identity on [0,d+4] and regularity bound on "
        f"{len(CURVE_FIXTURES)} multi-component fixtures {failures or ''}"
        f"({elapsed:.1f}s)",
    )


def test_criterion_09_partial_normalization_module():
    t0 = time.perf_counter()
    failures = []
    for name, spec in _curve_specs():
        v = partial_normalization_report(spec)
        good = (
            v.ok
            and v.computed["dim_degree_zero"] == len(spec) - 1
            and v.computed["regularity_at_most_d_minus_2"]
        )
        if not good:
            failures.append((name, v.computed))
    elapsed = time.perf_counter() - t0
    _accept(
        9,
        not failures,
        f"dim(B/A)_0 = l-1, reg(B/A) <= d-2, duality syzygy count on "
        f"{len(CURVE_FIXTURES)} fixtures {failures or ''}({elapsed:.1f}s)",
    )


def test_criterion_10_engine_property_suites():
    t0 = time.perf_counter()
    ring = default_ring()
    failures = []

    # (a) GB membership versus dense span computation, degrees <= 6
    for seed in range(20):
        rng = random.Random(f"accept10a:{seed}")
        gens = [
            ring.random_form(rng.choice((2, 2, 3)), rng)
            for _ in range(rng.choice((2, 3)))
        ]
        I = Ideal(ring, gens)
        for e in range(7):
            if I.quotient_dim(e) != oracles.quotient_dim(gens, e):
                failures.append(("span-dim", seed, e))
        probe = ring.random_form(rng.choice((3, 4)), rng)
        if I.contains(probe) != oracles.member(probe, gens):
            failures.append(("membership", seed))
        inside = gens[0] * ring.random_form(2, rng)
        if not (I.contains(inside) and oracles.member(inside, gens)):
            failures.append(("membership-inside", seed))

    # (b) composite-zero checks and the exact series identity; these run
    # inside every resolution build, re-run explicitly here on fresh samples:
    # S/I has the numerator N of its basis's leads, and I has 1 - N
    samples = [
        Ideal.parse(ring, ["x0*x1", "x0*x2", "x1*x2"]),
        determinantal_points(2, seed=0, ring=ring),
    ]
    for name, spec in list(_curve_specs())[:2]:
        samples.append(conductor_from_components(spec).conductor)
    for I in samples:
        N = I.gb().hilbert_numerator
        res = resolve_quotient(I)
        _verify_resolution(res, N)  # raises on violation
        res2 = resolve_ideal(I)
        _verify_resolution(res2, _numerator_sum((1, (1,)), (-1, N)))

    # (c) saturation idempotence and colon round-trips, 50 seeded instances
    m = irrelevant_ideal(ring)
    for seed in range(50):
        rng = random.Random(f"accept10c:{seed}")
        gens = [
            ring.random_form(rng.choice((1, 2, 2, 3)), rng)
            for _ in range(rng.choice((2, 3)))
        ]
        J = Ideal(ring, gens)
        I = ideal_product(J, m) if seed % 2 else J
        s = saturate(I)
        if not saturate(s).same_ideal(s):
            failures.append(("sat-idempotent", seed))
        if not quotient(s, m).same_ideal(s):
            failures.append(("sat-colon-stable", seed))
        twice = quotient(quotient(I, m), m)
        if not twice.same_ideal(quotient(I, ideal_product(m, m))):
            failures.append(("colon-round-trip", seed))

    # (d) criteria 1, 4, 5 rerun at the second prime with identical results
    ring2 = default_ring(32009)
    for ell in range(2, 6):
        if _lines_invariants(ring, ell) != _lines_invariants(ring2, ell):
            failures.append(("second-prime-lines", ell))
    for d in (4, 5):
        if _rational_invariants(ring, d) != _rational_invariants(ring2, d):
            failures.append(("second-prime-rational", d))
    if _two_route_invariants() != _two_route_invariants(32009):
        failures.append(("second-prime-corpus",))

    elapsed = time.perf_counter() - t0
    _accept(
        10,
        not failures and elapsed < 6.0,
        f"span oracle x20, resolution invariants, 50 saturation round-trips, "
        f"second-prime agreement {failures or ''}({elapsed:.1f}s < 6s)",
    )
