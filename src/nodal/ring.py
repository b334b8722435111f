"""Multivariate polynomial arithmetic over a prime field.

A monomial is a plain exponent tuple, a coefficient is an int in [0, p), and a
Polynomial maps monomials to nonzero coefficients.  Monomial orders turn a
monomial into a single integer key so that comparing keys compares monomials;
every order here is global (1 is smallest), which is what Buchberger-style
termination arguments need.
"""
from __future__ import annotations

import re
from collections import OrderedDict
from functools import lru_cache

from .errors import (
    CharacteristicError,
    ExponentLimitError,
    ParseError,
    RingMismatchError,
)
from .linalg import PRIME_LIMIT

Mono = tuple[int, ...]

# Per-variable exponent limit.  Order keys pack one byte per variable, so
# exponents must stay under 256; total degrees in this package stay far below.
MAX_EXPONENT = 255
_B = 8

# Total-degree cap of a ring's basis computations when none is given.
DEFAULT_DEGREE_CAP = 40

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_divides(b: Mono, a: Mono) -> bool:
    return all(x <= y for x, y in zip(b, a))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def mono_degree(m: Mono) -> int:
    return sum(m)


class MonomialOrder:
    """Total order on monomials via integer keys (bigger key = bigger monomial).

    `name` identifies the order among the orders of one ring: two orders with
    the same name compare every pair of monomials alike.  Basis caches key on
    it.
    """

    name: str = "order"

    def key(self, m: Mono) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.name}>"


def _perm_tag(perm: tuple[int, ...]) -> str:
    """Name suffix of a variable permutation; empty for the identity."""
    if perm == tuple(range(len(perm))):
        return ""
    return ":" + ",".join(map(str, perm))


def _grevlex_key(m: Mono, seq: tuple[int, ...]) -> int:
    # seq lists variable indices from most to least significant; the cheapest
    # (last) variable's complement byte sits highest so that integer comparison
    # matches graded reverse lexicographic comparison.
    k = len(seq)
    acc = 0
    deg = 0
    for t in range(k):
        e = m[seq[t]]
        deg += e
        acc |= (MAX_EXPONENT - e) << (t * _B)
    return (deg << (k * _B)) | acc


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic order.

    perm gives the significance sequence of variable indices; perm[-1] is the
    cheapest variable (the one whose multiples sort last within a degree).
    """

    __slots__ = ("n", "perm", "name", "_cache")

    def __init__(self, n: int, perm: tuple[int, ...] | None = None):
        self.n = n
        self.perm = tuple(perm) if perm is not None else tuple(range(n))
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of the variables")
        self.name = "grevlex" + _perm_tag(self.perm)
        self._cache: dict[Mono, int] = {}

    def key(self, m: Mono) -> int:
        k = self._cache.get(m)
        if k is None:
            k = _grevlex_key(m, self.perm)
            self._cache[m] = k
        return k


class Lex(MonomialOrder):
    __slots__ = ("n", "perm", "name", "_cache")

    def __init__(self, n: int, perm: tuple[int, ...] | None = None):
        self.n = n
        self.perm = tuple(perm) if perm is not None else tuple(range(n))
        self.name = "lex" + _perm_tag(self.perm)
        self._cache: dict[Mono, int] = {}

    def key(self, m: Mono) -> int:
        k = self._cache.get(m)
        if k is None:
            n = len(self.perm)
            k = 0
            for t, v in enumerate(self.perm):
                k |= m[v] << ((n - 1 - t) * _B)
            self._cache[m] = k
        return k


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def check_characteristic(p: int) -> None:
    """Refuse a characteristic the engine cannot compute in exactly.

    p must be prime and below linalg.PRIME_LIMIT = 2^31, the bound under which
    int64 elimination never overflows (the proof is in linalg).
    """
    if not is_prime(p):
        raise CharacteristicError(f"{p} is not prime")
    if p >= PRIME_LIMIT:
        raise CharacteristicError(
            f"prime {p} is not below 2^31, the limit of exact int64 elimination"
        )


def check_degree_cap(cap: int) -> None:
    """Refuse a total-degree cap above MAX_EXPONENT.

    The Groebner engine builds no monomial of total degree above its ring's
    cap, so a cap within it keeps every exponent, and every order key, in
    bounds.  `Ring` checks its cap here, and the command line its
    --degree-cap flag.
    """
    if cap > MAX_EXPONENT:
        raise ExponentLimitError(
            f"degree cap {cap} is above the exponent limit {MAX_EXPONENT}"
        )


class Ring:
    """The ring F_p[x_0, ..., x_{n-1}] for a prime p and named variables.

    cap is the degree cap of every basis computed over the ring: no basis,
    colon, saturation or resolution over it builds a monomial of total degree
    above cap, and one that would raises DegreeCapExceeded.  Like p, it is
    part of what the ring is, so rings with different caps are different
    rings and their elements do not mix.
    """

    __slots__ = (
        "p", "cap", "names", "nvars", "_index", "_grevlex", "basis_cache",
        "__weakref__",
    )

    def __init__(self, names, p: int = 32003, cap: int = DEFAULT_DEGREE_CAP):
        if isinstance(names, str):
            names = [s.strip() for s in names.split(",")]
        names = tuple(names)
        if not names:
            raise ValueError("at least one variable is required")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise ValueError(f"bad variable name {nm!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        check_characteristic(p)
        check_degree_cap(cap)
        self.p = p
        self.cap = cap
        self.names = names
        self.nvars = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}
        self._grevlex = Grevlex(self.nvars)
        # Reduced Groebner bases over this ring, least recently used first;
        # groebner.groebner_basis fills and bounds it, with entries that
        # point back at the ring only weakly.
        self.basis_cache: OrderedDict = OrderedDict()

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Ring)
            and self.names == other.names
            and self.p == other.p
            and self.cap == other.cap
        )

    def __hash__(self):
        return hash((self.names, self.p, self.cap))

    def __repr__(self):
        return f"Ring({','.join(self.names)}; p={self.p}, cap={self.cap})"

    @property
    def grevlex(self) -> Grevlex:
        return self._grevlex

    @property
    def zero_mono(self) -> Mono:
        return (0,) * self.nvars

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        return Polynomial(self, {self.zero_mono: c} if c else {})

    def gen(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def gens(self) -> list["Polynomial"]:
        return [self.gen(i) for i in range(self.nvars)]

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        if any(e < 0 or e > MAX_EXPONENT for e in exps):
            raise ExponentLimitError(f"exponent outside [0, {MAX_EXPONENT}]")
        c = coeff % self.p
        return Polynomial(self, {exps: c} if c else {})

    def poly(self, terms: dict) -> "Polynomial":
        """Build a polynomial from a mono->coeff mapping, normalizing it."""
        out = {}
        for m, c in terms.items():
            c %= self.p
            if not c:
                continue
            if len(m) != self.nvars:
                raise ValueError("exponent tuple has wrong length")
            if any(e < 0 or e > MAX_EXPONENT for e in m):
                raise ExponentLimitError(f"exponent outside [0, {MAX_EXPONENT}]")
            out[tuple(m)] = c
        return Polynomial(self, out)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def monomials_of_degree(self, d: int) -> list[Mono]:
        """All degree-d monomials, largest first in grevlex."""
        return list(grevlex_monomials(d, self.nvars))

    def random_form(self, degree: int, rng) -> "Polynomial":
        """Dense homogeneous form with uniform coefficients; never zero."""
        p = self.p
        monos = _compositions_cached(degree, self.nvars)
        while True:
            f = self.poly({m: rng.randrange(p) for m in monos})
            if f:
                return f

    def random_linear(self, rng) -> "Polynomial":
        return self.random_form(1, rng)


@lru_cache(maxsize=None)
def _compositions_cached(d: int, n: int) -> tuple[Mono, ...]:
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in _compositions_cached(d - first, n - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def grevlex_monomials(d: int, n: int) -> tuple[Mono, ...]:
    """All degree-d monomials in n variables, largest first in grevlex."""
    return tuple(sorted(_compositions_cached(d, n), key=Grevlex(n).key, reverse=True))


class Polynomial:
    """Immutable sparse polynomial; `terms` maps monomials to nonzero residues."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-looking container; identity hashing would mislead

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if not c:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial(self.ring, {m: (a * c) % p for m, a in self.terms.items()})
        self._check(other)
        p = self.ring.p
        if not self.terms or not other.terms:
            return self.ring.zero()
        if self.degree() + other.degree() > MAX_EXPONENT:
            raise ExponentLimitError("product exceeds the exponent limit")
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out: dict = {}
        for mb, cb in b.items():
            for ma, ca in a.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                s = (out.get(m, 0) + ca * cb) % p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        it = iter(self.terms)
        d = sum(next(it))
        return all(sum(m) == d for m in it)

    def homogeneous_degree(self) -> int | None:
        """Degree when homogeneous (None for 0); raises otherwise."""
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def lead_monomial(self, order: MonomialOrder | None = None) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        key = (order or self.ring.grevlex).key
        return max(self.terms, key=key)

    def lead_coefficient(self, order: MonomialOrder | None = None) -> int:
        return self.terms[self.lead_monomial(order)]

    def partial_derivative(self, var: int | str) -> "Polynomial":
        i = var if isinstance(var, int) else self.ring.var_index(var)
        p = self.ring.p
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if not e:
                continue
            nc = c * e % p
            if not nc:
                continue
            nm = m[:i] + (e - 1,) + m[i + 1 :]
            out[nm] = nc
        return Polynomial(self.ring, out)

    def evaluate(self, point) -> int:
        """Value at a point (tuple of residues)."""
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong length")
        p = self.ring.p
        total = 0
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = v * pow(x, e, p) % p
            total = (total + v) % p
        return total

    def coefficient(self, mono: Mono) -> int:
        return self.terms.get(tuple(mono), 0)

    def sorted_terms(self, order: MonomialOrder | None = None):
        key = (order or self.ring.grevlex).key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.ring.p
        names = self.ring.names
        parts = []
        for m, c in self.sorted_terms():
            neg = c > p // 2
            mag = p - c if neg else c
            factors = []
            for nm, e in zip(names, m):
                if e == 1:
                    factors.append(nm)
                elif e > 1:
                    factors.append(f"{nm}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*^])|(\S)")


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse `3*x0^2*x1 - x2^3` style text; whitespace is insignificant.

    Terms are joined by + and -; a term is an optional coefficient and
    var[^exp] factors, with * optional between factors.
    """
    p = ring.p
    terms: dict = {}
    pos = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty polynomial", pos)
    sign = 1
    first = True
    while pos < n:
        # sign (required between terms, optional before the first)
        pos = skip_ws(pos)
        if pos >= n:
            raise ParseError("dangling sign", pos)
        ch = text[pos]
        if ch in "+-":
            sign = 1 if ch == "+" else -1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ParseError(f"expected + or - before {ch!r}", pos)
        else:
            sign = 1
        first = False
        # one term: coefficient and/or factors
        coeff = 1
        exps = [0] * ring.nvars
        saw_factor = False
        expect_factor = True
        while pos < n:
            pos = skip_ws(pos)
            if pos >= n:
                break
            mt = _TOKEN_RE.match(text, pos)
            if mt is None:
                break
            num, name, op, bad = mt.groups()
            if bad is not None:
                raise ParseError(f"unexpected character {bad!r}", pos)
            if op in ("+", "-"):
                break
            if op == "*":
                if expect_factor:
                    raise ParseError("misplaced '*'", pos)
                expect_factor = True
                pos = mt.end()
                continue
            if op == "^":
                raise ParseError("misplaced '^'", pos)
            if num is not None:
                coeff = coeff * int(num)
                saw_factor = True
                expect_factor = False
                pos = mt.end()
                continue
            # variable factor, optional ^exponent
            try:
                vi = ring.var_index(name)
            except ValueError:
                raise ParseError(f"unknown variable {name!r}", pos) from None
            pos = mt.end()
            e = 1
            look = skip_ws(pos)
            if look < n and text[look] == "^":
                look = skip_ws(look + 1)
                me = _TOKEN_RE.match(text, look)
                if me is None or me.group(1) is None:
                    raise ParseError("exponent must be a number", look)
                e = int(me.group(1))
                pos = me.end()
            if e < 0 or exps[vi] + e > MAX_EXPONENT:
                raise ExponentLimitError(f"exponent exceeds {MAX_EXPONENT}")
            exps[vi] += e
            saw_factor = True
            expect_factor = False
        if not saw_factor:
            raise ParseError("empty term", pos)
        m = tuple(exps)
        c = (terms.get(m, 0) + sign * coeff) % p
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
        pos = skip_ws(pos)
    return Polynomial(ring, terms)

