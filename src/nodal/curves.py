"""Plane-curve layer: curve specifications, Jacobian ideals, conductor
ideals by independent routes, and seeded generic constructions.

The conductor of a reduced plane curve with only ordinary nodes is the
saturation of its Jacobian ideal; for a curve split into known components
it is also the saturated sum of the component conductors scaled by the
complementary products.  Both routes are implemented, and every conductor
computed from a single equation carries a certificate: the saturated
Jacobian must be a reduced point scheme, otherwise the curve has a
worse-than-nodal singularity and the computation refuses instead of
returning a wrong ideal.

All genericity here is sampling over a large prime field: constructions
that need generic input draw from a seeded PRNG, verify an explicit
certificate, and retry with a fresh derived seed up to a budget.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    CharacteristicError,
    InvariantViolation,
    NonNodalCurveError,
    ParseError,
    RetryBudgetExceeded,
)
from .ideals import (
    Ideal,
    codimension,
    curve_is_squarefree,
    ideal_product,
    ideal_sum,
    indeg,
    intersect,
    points_are_reduced,
    saturate,
    scheme_length,
    symbolic_square,
)
from .report import betti_table
from .resolution import resolve_ideal
from .ring import DEFAULT_DEGREE_CAP, Polynomial, Ring, check_characteristic

DEFAULT_PRIME = 32003
SECOND_PRIME = 32009


def default_ring(prime: int = DEFAULT_PRIME, cap: int = DEFAULT_DEGREE_CAP) -> Ring:
    return Ring("x0,x1,x2", p=prime, cap=cap)


@dataclass
class CurveComponent:
    """One reduced component: its form, degree, and an optional conductor.

    The hint, when present, is the saturated conductor ideal of this
    component alone (the unit ideal for a smooth component).  Fixtures for
    curves with cusps reuse the slot for the reduced singular-point ideal.

    `_conductors` keeps, per seed, the conductor that `_component_conductor`
    computed by the nodal route, so every statement on a curve, and every
    curve built from the same component objects, computes it once.  The
    memo dies with the component; callers must not mutate the ideals it
    hands out.
    """

    form: Polynomial
    degree: int
    conductor_hint: Ideal | None = None
    _conductors: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_form(cls, form: Polynomial, hint: Ideal | None = None):
        return cls(form, form.homogeneous_degree(), hint)


class CurveSpec:
    """Reduced plane curve presented as a list of pairwise coprime components.

    components_certified records whether the component list is trusted as
    the full irreducible decomposition bookkeeping: a curve handed over as a
    single implicit equation may well be reducible, so validators must not
    read a component count off it.  A certified list is checked where that
    is cheap: a conic component is a pair of lines exactly when its Jacobian
    ideal has codimension below 3, since the partials of a conic are the rows
    of its symmetric matrix, and such a conic is refused.

    `_reports` keeps, per seed, the `ConductorReport` of
    `conductor_from_components`, so the statements on one curve compute it
    once.  The memo dies with the curve; callers must not mutate the reports
    it hands out (they are frozen) or the ideals inside them.
    """

    __slots__ = (
        "components",
        "components_certified",
        "ring",
        "total_form",
        "degree",
        "_reports",
    )

    def __init__(self, components, *, components_certified=True):
        components = tuple(components)
        if not components:
            raise ValueError("a curve needs at least one component")
        ring = components[0].form.ring
        if ring.nvars != 3:
            raise ValueError("plane curves live in three variables")
        total = ring.one()
        for comp in components:
            f = comp.form
            if not f or not f.is_homogeneous():
                raise ValueError("components must be nonzero forms")
            if f.ring != ring:
                raise ValueError("components over different rings")
            if comp.degree != f.homogeneous_degree():
                raise ValueError("stated component degree is wrong")
            if comp.conductor_hint is not None and comp.conductor_hint.ring != ring:
                raise ValueError("hint over a different ring")
            if not curve_is_squarefree(f):
                raise ValueError("component form has a repeated factor")
            total = total * f
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                pair = Ideal(ring, [components[i].form, components[j].form])
                if codimension(pair) != 2:
                    raise ValueError("components share a common factor")
        # the Jacobian basis is cached by curve_is_squarefree above
        if components_certified:
            for comp in components:
                if comp.degree == 2 and codimension(jacobian_ideal(comp.form)) < 3:
                    raise ValueError(
                        f"conic component {comp.form} is a pair of lines;"
                        " list the lines as components"
                    )
        self.components = components
        self.components_certified = bool(components_certified)
        self.ring = ring
        self.total_form = total
        self.degree = total.homogeneous_degree()
        self._reports = {}

    @classmethod
    def from_forms(cls, forms, *, components_certified=True):
        comps = [CurveComponent.from_form(f) for f in forms]
        return cls(comps, components_certified=components_certified)

    def __len__(self):
        return len(self.components)

    def complementary_form(self, i: int) -> Polynomial:
        """Product of all component forms except the i-th."""
        g = self.ring.one()
        for j, comp in enumerate(self.components):
            if j != i:
                g = g * comp.form
        return g


@dataclass(frozen=True)
class ConductorReport:
    """Conductor ideal of a curve with its numerical invariants attached."""

    conductor: Ideal
    delta: int
    regularity: int
    degree_d_syzygies: int
    h0_jump_degree: int
    route: str
    curve_degree: int

    def as_dict(self):
        return {
            "conductor_basis": [str(g) for g in self.conductor.gb().elements],
            "curve_degree": self.curve_degree,
            "degree_d_syzygies": self.degree_d_syzygies,
            "delta": self.delta,
            "h0_jump_degree": self.h0_jump_degree,
            "regularity": self.regularity,
            "route": self.route,
        }


def jacobian_ideal(F: Polynomial) -> Ideal:
    """Ideal of the partial derivatives of a form.

    Needs the characteristic away from the degree so that the Euler
    relation puts F itself into the ideal; that membership is checked.
    """
    ring = F.ring
    if not F or not F.is_homogeneous():
        raise ValueError("need a nonzero form")
    d = F.homogeneous_degree()
    if d % ring.p == 0:
        raise CharacteristicError(
            f"characteristic {ring.p} divides the curve degree {d}"
        )
    jac = Ideal(ring, [F.partial_derivative(v) for v in range(ring.nvars)])
    if not jac.contains(F):
        raise InvariantViolation("form not in its own Jacobian ideal")
    return jac


def _fill_report(conductor: Ideal, d: int, route: str) -> ConductorReport:
    if conductor.is_unit():
        return ConductorReport(conductor, 0, 0, 0, d - 1, route, d)
    table = betti_table(resolve_ideal(conductor))
    reg = table.regularity()
    return ConductorReport(
        conductor=conductor,
        delta=scheme_length(conductor),
        regularity=reg,
        degree_d_syzygies=table.beta(1, d),
        h0_jump_degree=d - 1 - reg,
        route=route,
        curve_degree=d,
    )


def conductor_nodal(F: Polynomial, seed: int = 0) -> ConductorReport:
    """Conductor of an all-nodal curve: the saturated Jacobian ideal.

    The nodes-only hypothesis is certified after the fact: the saturation
    must be a reduced point scheme, which pins every singularity down to an
    ordinary node.  Anything worse raises instead of returning an ideal
    that would not be the conductor.  A repeated factor is refused first:
    F is squarefree exactly when its Jacobian ideal, which contains F by
    Euler's relation, has codimension at least 2 (`curve_is_squarefree`).
    """
    ring = F.ring
    if ring.nvars != 3:
        raise ValueError("plane curves live in three variables")
    if not F or not F.is_homogeneous():
        raise ValueError("need a nonzero form")
    d = F.homogeneous_degree()
    jac = jacobian_ideal(F)
    if codimension(jac) < 2:
        raise NonNodalCurveError(
            "non-nodal singularity detected: the form has a repeated factor"
        )
    sat = saturate(jac)
    if sat.is_unit():
        return _fill_report(sat, d, "jacobian-saturation")
    cert = points_are_reduced(sat, seed=seed)
    if not cert.reduced:
        raise NonNodalCurveError(
            "non-nodal singularity detected: the saturated Jacobian is not"
            " a reduced point scheme"
        )
    return _fill_report(sat, d, "jacobian-saturation")


def _component_conductor(comp: CurveComponent, seed: int) -> Ideal:
    """Conductor of one component alone: its hint, else the nodal route,
    computed once per seed and kept on the component."""
    if comp.conductor_hint is not None:
        return comp.conductor_hint
    if seed not in comp._conductors:
        comp._conductors[seed] = conductor_nodal(comp.form, seed).conductor
    return comp._conductors[seed]


def _blend(spec: CurveSpec, hints) -> Ideal:
    """Saturation of the sum of hint_i times the complementary product."""
    ring = spec.ring
    total = Ideal(ring, ())
    for i in range(len(spec.components)):
        part = ideal_product(hints[i], Ideal(ring, [spec.complementary_form(i)]))
        total = ideal_sum(total, part)
    return saturate(total)


def conductor_from_components(spec: CurveSpec, seed: int = 0) -> ConductorReport:
    """Conductor from the component decomposition.

    Sums each component's own conductor times the product of the other
    forms, then saturates.  Component conductors come from supplied hints
    or, failing that, from the nodal route on the component alone; smooth
    components contribute their complementary product itself.  The report
    is computed once per seed and kept on the spec (`CurveSpec._reports`).
    """
    if seed in spec._reports:
        return spec._reports[seed]
    hints = [_component_conductor(c, seed) for c in spec.components]
    blended = _blend(spec, hints)
    if len(spec.components) == 1 and spec.components[0].conductor_hint is not None:
        route = "hint"
    else:
        route = "component-product"
    spec._reports[seed] = _fill_report(blended, spec.degree, route)
    return spec._reports[seed]


def intersection_points_ideal(spec: CurveSpec) -> Ideal:
    """Saturated ideal of the locus where at least two components meet."""
    ring = spec.ring
    meets = None
    for i in range(len(spec.components)):
        for j in range(i + 1, len(spec.components)):
            pair = saturate(
                Ideal(ring, [spec.components[i].form, spec.components[j].form])
            )
            meets = pair if meets is None else intersect(meets, pair)
    if meets is None:
        return Ideal(ring, [ring.one()])
    return meets


# ---------------------------------------------------------------------------
# Seeded generic constructions


def _poly_det(rows):
    """Determinant by first-row expansion; fine for the small sizes here."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    out = ring.zero()
    for k in range(n):
        minor = [
            [row[c] for c in range(n) if c != k] for row in rows[1:]
        ]
        term = rows[0][k] * _poly_det(minor)
        out = out + term if k % 2 == 0 else out - term
    return out


def _implicit_form(ring: Ring, maps, d: int) -> Polynomial | None:
    """Degree-d form vanishing on the image of a binary parametrization.

    Linear algebra over the coefficients: F(a, b, c) is a binary form of
    degree d^2 whose coefficients are linear in the coefficients of F, so
    the implicit equation is a nullspace vector.  Returns None unless that
    nullspace is one-dimensional, which is the genericity certificate for
    the parametrization being birational onto a degree-d image.
    """
    pring = maps[0].ring
    monos = ring.monomials_of_degree(d)
    pows = []
    for f in maps:
        stack = [pring.one()]
        for _ in range(d):
            stack.append(stack[-1] * f)
        pows.append(stack)
    m = d * d
    A = np.zeros((m + 1, len(monos)), dtype=np.int64)
    for cidx, (i, j, k) in enumerate(monos):
        g = pows[0][i] * pows[1][j] * pows[2][k]
        for mono, coeff in g.terms.items():
            A[mono[0], cidx] = coeff
    null = linalg.nullspace(A, ring.p)
    if null.shape[0] != 1:
        return None
    terms = {mono: int(c) for mono, c in zip(monos, null[0]) if c}
    F = Polynomial(ring, terms)
    lc = F.lead_coefficient(ring.grevlex)
    return F * pow(lc, -1, ring.p)


def rational_curve_implicitize(
    d: int, seed: int = 0, ring: Ring | None = None, budget: int = 5
) -> CurveSpec:
    """Generic rational plane curve of degree d, by implicitization.

    Samples three generic binary degree-d forms, solves for the implicit
    equation, and certifies the outcome: one-dimensional kernel, nodal
    conductor with delta = C(d-1, 2) nodes, and no degree-d syzygy of the
    conductor (the irreducibility reading).  Each retry derives a fresh
    seed; the budget is small because failures are genuinely rare.
    """
    if d < 4:
        raise ValueError("the generic nodal range needs degree at least 4")
    if ring is None:
        ring = default_ring()
    expected_delta = (d - 1) * (d - 2) // 2
    for attempt in range(budget):
        rng = random.Random(f"implicitize:{seed}:{attempt}")
        pring = Ring("s,t", p=ring.p, cap=ring.cap)
        maps = [pring.random_form(d, rng) for _ in range(3)]
        F = _implicit_form(ring, maps, d)
        if F is None:
            continue
        try:
            rep = conductor_nodal(F, seed=rng.randrange(1 << 30))
        except NonNodalCurveError:
            continue
        if rep.delta != expected_delta or rep.degree_d_syzygies != 0:
            continue
        comp = CurveComponent(F, d, rep.conductor)
        return CurveSpec([comp])
    raise RetryBudgetExceeded(
        f"no certified nodal rational curve of degree {d} in {budget} attempts"
    )


def determinantal_points(
    m: int, seed: int = 0, ring: Ring | None = None, budget: int = 5
) -> Ideal:
    """Point scheme of the maximal minors of a generic structured matrix.

    The matrix has m+1 rows and m columns, first column of degree 2m-1
    forms and quadric entries elsewhere, so the minors have degree 4m-3.
    Certifies codimension 2, the point count 20*C(m-1,2) + 18m - 17,
    regularity 6m-5, the generator count, and reducedness; retries on any
    failure.
    """
    if m < 2:
        raise ValueError("the construction starts at m = 2")
    if ring is None:
        ring = default_ring()
    expected_delta = 20 * (m - 1) * (m - 2) // 2 + 18 * m - 17
    expected_reg = 6 * m - 5
    gen_degree = 4 * m - 3
    for attempt in range(budget):
        rng = random.Random(f"determinantal:{seed}:{attempt}")
        mat = [
            [
                ring.random_form(2 * m - 1 if c == 0 else 2, rng)
                for c in range(m)
            ]
            for r in range(m + 1)
        ]
        minors = [
            _poly_det([row for r, row in enumerate(mat) if r != drop])
            for drop in range(m + 1)
        ]
        ideal = saturate(Ideal(ring, minors))
        if codimension(ideal) != 2:
            continue
        if scheme_length(ideal) != expected_delta:
            continue
        res = resolve_ideal(ideal)
        table = betti_table(res)
        if table.regularity() != expected_reg:
            continue
        if res.twists[0] != (gen_degree,) * (m + 1):
            continue
        if m == 2 and (table.beta(1, 7) != 1 or table.beta(1, 8) != 1):
            continue
        cert = points_are_reduced(ideal, seed=rng.randrange(1 << 30))
        if not cert.reduced:
            continue
        return ideal
    raise RetryBudgetExceeded(
        f"no certified determinantal point set at m = {m} in {budget} attempts"
    )


def nodal_curve_through(
    points: Ideal, D: int, seed: int = 0, budget: int = 10
) -> CurveSpec | None:
    """Search for a degree-D curve with nodes exactly at the given points.

    Samples random elements of the degree-D slice of the symbolic square
    and keeps the first one whose nodal certificate succeeds with
    conductor equal to the point ideal.  Returns None when the budget runs
    out: at the minimal possible degree genericity can genuinely fail, and
    that is an observation, not an error.
    """
    ring = points.ring
    if not saturate(points).same_ideal(points):
        raise ValueError("the point ideal must be saturated")
    square = symbolic_square(points)
    least = indeg(square)
    if D < least:
        raise ValueError(f"no doubly vanishing forms below degree {least}")
    basis = square.graded_basis(D)
    for attempt in range(budget):
        rng = random.Random(f"curve-search:{seed}:{attempt}")
        F = ring.zero()
        while not F:
            F = sum(
                (b * rng.randrange(ring.p) for b in basis), start=ring.zero()
            )
        try:
            rep = conductor_nodal(F, seed=rng.randrange(1 << 30))
        except NonNodalCurveError:
            continue
        if not rep.conductor.same_ideal(points):
            continue
        comp = CurveComponent(F, D, rep.conductor)
        return CurveSpec([comp], components_certified=False)
    return None


# ---------------------------------------------------------------------------
# Fixture format


@dataclass
class Fixture:
    """Parsed fixture: a curve spec or a plain ideal, never both."""

    ring: Ring
    curve: CurveSpec | None
    ideal: Ideal | None


def parse_fixture(
    text: str, prime: int | None = None, cap: int = DEFAULT_DEGREE_CAP
) -> Fixture:
    """Parse the fixture format.

    First line: `ring p=32003 vars=x0,x1,x2`.  Then either `component:`
    lines (each optionally followed by `conductor_hint: f;g;...` for that
    component), a single `implicit:` line for a curve given by one
    equation, or `generator:` lines for a plain ideal fixture.  Blank
    lines and `#` comments are skipped.  A prime override replaces the
    header's p.  The ring gets the degree cap `cap`, which every basis the
    parse computes (the component checks of `CurveSpec`) already obeys.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty fixture")
    head = lines[0].split()
    if head[0] != "ring":
        raise ParseError("fixture must start with a ring header")
    header_p = None
    names = None
    for token in head[1:]:
        if token.startswith("p="):
            try:
                header_p = int(token[2:])
            except ValueError:
                raise ParseError(f"bad ring header prime {token!r}") from None
        elif token.startswith("vars="):
            names = token[5:]
        else:
            raise ParseError(f"unknown ring header token {token!r}")
    if header_p is None or names is None:
        raise ParseError("ring header needs p= and vars=")
    if prime is None:
        try:
            check_characteristic(header_p)
        except CharacteristicError as exc:
            raise ParseError(f"bad ring header: {exc}") from None
    try:
        ring = Ring(names, p=prime if prime is not None else header_p, cap=cap)
    except ValueError as exc:
        raise ParseError(f"bad ring header: {exc}") from None

    components: list[CurveComponent] = []
    generators: list[Polynomial] = []
    implicit: Polynomial | None = None
    for line in lines[1:]:
        if ":" not in line:
            raise ParseError(f"expected 'kind: polynomial', got {line!r}")
        kind, _, rest = line.partition(":")
        kind = kind.strip()
        rest = rest.strip()
        if kind == "component":
            components.append(CurveComponent.from_form(ring.parse(rest)))
        elif kind == "conductor_hint":
            if not components:
                raise ParseError("conductor_hint before any component")
            hint = Ideal(ring, [ring.parse(t) for t in rest.split(";")])
            last = components[-1]
            components[-1] = CurveComponent(last.form, last.degree, hint)
        elif kind == "implicit":
            if implicit is not None:
                raise ParseError("more than one implicit line")
            implicit = ring.parse(rest)
        elif kind == "generator":
            generators.append(ring.parse(rest))
        else:
            raise ParseError(f"unknown fixture line kind {kind!r}")

    used = sum(1 for block in (components, generators) if block) + (
        implicit is not None
    )
    if used != 1:
        raise ParseError(
            "fixture needs exactly one of: component lines, an implicit"
            " line, or generator lines"
        )
    if generators:
        return Fixture(ring, None, Ideal(ring, generators))
    if implicit is not None:
        comp = CurveComponent.from_form(implicit)
        spec = CurveSpec([comp], components_certified=False)
        return Fixture(ring, spec, None)
    spec = CurveSpec(components)
    return Fixture(ring, spec, None)
