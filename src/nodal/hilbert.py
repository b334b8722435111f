"""Hilbert functions and polynomials, both read off one Hilbert series.

The series of S/I is N(t)/(1-t)^n, N the numerator of the lead-term ideal of
a reduced basis (`ideals.hilbert_numerator`).  The function's value in
degree e is the coefficient of t^e; the polynomial sums one binomial in e
per coefficient of N.  A minimal free resolution has the same numerator as
its alternating Betti sum, an identity checked when it is built, so its
twists bound the window of values.  The agreement degree is where the
function settles onto the polynomial, which for a saturated point scheme is
the regularity of the coordinate ring.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .ideals import Ideal
from .report import VerdictReport
from .resolution import FreeResolution, resolve_quotient


def _binomial_polynomial(nvars: int, shift: int) -> list[Fraction]:
    """Coefficients in e of binom(e - shift + nvars - 1, nvars - 1)."""
    coeffs = [Fraction(1)]
    for k in range(1, nvars):
        # times (e - shift + k) / k
        coeffs = [(a * (k - shift) + b) / k for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def resolution_hilbert_polynomial(res: FreeResolution) -> tuple[Fraction, ...]:
    """Hilbert polynomial of the resolved module, low coefficients first:
    c * binom(e - k + n - 1, n - 1) summed over the terms c t^k of its
    numerator."""
    n = res.ring.nvars
    acc = [Fraction(0)] * n
    for shift, coeff in enumerate(res.numerator):
        for k, c in enumerate(_binomial_polynomial(n, shift)):
            acc[k] += coeff * c
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
    ideal: Ideal, resolution: FreeResolution | None = None
) -> HilbertData:
    """HilbertData of S/I on degrees 0 to the largest twist of its minimal
    resolution plus 2; a resolution the caller supplies must be one of S/I."""
    if resolution is None:
        resolution = resolve_quotient(ideal)
    elif resolution.numerator != ideal.gb().hilbert_numerator:
        raise InvariantViolation("the resolution is not one of S/I")
    values = [ideal.quotient_dim(e) for e in range(resolution.max_twist() + 3)]
    return _package(values, resolution_hilbert_polynomial(resolution))


def cm_regularity_crosscheck(ideal: Ideal) -> VerdictReport:
    """Three readings of reg(S/I) for a saturated point ideal.

    Betti reading max(j - i), last-map reading max twist of F_2 minus 2,
    and the degree where the Hilbert function settles onto its constant.
    All three must agree for Cohen-Macaulay codimension 2.
    """
    res = resolve_quotient(ideal)
    computed: dict = {"length": res.length}
    expected: dict = {"length": 2}
    if res.length == 2:
        reg = res.regularity()
        data = hilbert_function(ideal, resolution=res)
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
