"""Hilbert functions and polynomials, each computed by two routes.

The function route counts standard monomials under the lead-term ideal of
a reduced basis.  The polynomial route expands the alternating sum of
binomial dimensions of a minimal free resolution into an honest
polynomial in the degree.  Both are exposed together in HilbertData and
their agreement degree is where the function settles onto the polynomial,
which for a saturated point scheme is the regularity of the coordinate
ring.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .groebner import DEFAULT_DEGREE_CAP
from .ideals import Ideal
from .report import VerdictReport
from .resolution import FreeResolution, resolve_quotient


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binomial_polynomial(nvars: int, shift: int) -> list[Fraction]:
    """Coefficients in e of binom(e - shift + nvars - 1, nvars - 1)."""
    coeffs = [Fraction(1)]
    for k in range(1, nvars):
        coeffs = _poly_mul(coeffs, [Fraction(k - shift), Fraction(1)])
    fact = 1
    for k in range(2, nvars):
        fact *= k
    return [c / fact for c in coeffs]


def resolution_hilbert_polynomial(res: FreeResolution) -> tuple[Fraction, ...]:
    """Hilbert polynomial of the resolved module, low coefficients first."""
    n = res.ring.nvars
    acc: list[Fraction] = []
    for i, level in enumerate(res.twists):
        sign = (-1) ** i
        for t in level:
            part = _binomial_polynomial(n, t)
            if len(part) > len(acc):
                acc.extend([Fraction(0)] * (len(part) - len(acc)))
            for k, c in enumerate(part):
                acc[k] += sign * c
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def evaluate_polynomial(coeffs, e: int) -> int:
    val = Fraction(0)
    for c in reversed(coeffs):
        val = val * e + c
    if val.denominator != 1:
        raise InvariantViolation("Hilbert polynomial not integer valued")
    return int(val)


@dataclass(frozen=True)
class HilbertData:
    """Hilbert function values alongside the Hilbert polynomial.

    values[e] is the dimension of the degree-e piece for e up to the
    window; polynomial holds coefficients low to high; agreement_degree is
    the least e0 with values(e) = polynomial(e) from e0 on.
    """

    values: tuple[int, ...]
    polynomial: tuple[Fraction, ...]
    agreement_degree: int

    def value(self, e: int) -> int:
        if e < 0:
            return 0
        if e < len(self.values):
            return self.values[e]
        return evaluate_polynomial(self.polynomial, e)

    def is_constant_polynomial(self) -> bool:
        return len(self.polynomial) <= 1

    def constant(self) -> int:
        if not self.is_constant_polynomial():
            raise InvariantViolation("Hilbert polynomial is not constant")
        return int(self.polynomial[0]) if self.polynomial else 0

    def as_dict(self) -> dict:
        return {
            "values": list(self.values),
            "polynomial": [str(c) for c in self.polynomial],
            "agreement_degree": self.agreement_degree,
        }


def _package(values, poly) -> HilbertData:
    agree = len(values)
    for e in range(len(values) - 1, -1, -1):
        if values[e] != evaluate_polynomial(poly, e):
            break
        agree = e
    if agree >= len(values) and any(values):
        raise InvariantViolation("Hilbert window too short to reach the polynomial")
    return HilbertData(tuple(values), tuple(poly), agree)


def hilbert_function(
    ideal: Ideal,
    resolution: FreeResolution | None = None,
    cap: int = DEFAULT_DEGREE_CAP,
) -> HilbertData:
    """HilbertData of S/I with both routes cross-checked on the window."""
    if resolution is None:
        resolution = resolve_quotient(ideal, cap)
    top = resolution.max_twist() + 3
    values = [ideal.quotient_dim(e) for e in range(top)]
    for e in range(top):
        if values[e] != resolution.hilbert_alternating(e):
            raise InvariantViolation("Hilbert routes disagree")
    poly = resolution_hilbert_polynomial(resolution)
    return _package(values, poly)


def cm_regularity_crosscheck(
    ideal: Ideal, cap: int = DEFAULT_DEGREE_CAP
) -> VerdictReport:
    """Three readings of reg(S/I) for a saturated point ideal.

    Betti reading max(j - i), last-map reading max twist of F_2 minus 2,
    and the degree where the Hilbert function settles onto its constant.
    All three must agree for Cohen-Macaulay codimension 2.
    """
    res = resolve_quotient(ideal, cap)
    computed: dict = {"length": res.length}
    expected: dict = {"length": 2}
    if res.length == 2:
        reg = res.regularity()
        data = hilbert_function(ideal, resolution=res, cap=cap)
        computed.update(
            {
                "regularity": reg,
                "last_twist_reading": max(res.twists[2]) - 2,
                "hilbert_agreement_degree": data.agreement_degree,
                "delta": data.constant() if data.is_constant_polynomial() else None,
            }
        )
        expected.update(
            {"last_twist_reading": reg, "hilbert_agreement_degree": reg}
        )
    return VerdictReport.from_comparison(
        "cm-regularity-crosscheck", ideal.ring.p, computed, expected
    )
