"""Univariate polynomials and rational functions over k = F_{p^h}.

Provides exact ring arithmetic, gcd, complete factorization into monic
irreducibles (square-free split, then distinct-degree, then equal-degree
splitting with random trials drawn from the input alone), and a
constructive weak approximant with prescribed valuations.
"""

from __future__ import annotations

import hashlib
import random

from .errors import DivisionByZero, FieldMismatch, ParseError, ZeroArgument
from .ff import FieldElement, FieldSpec, _prime_factors


class Poly:
    """Polynomial with ascending FieldElement coefficients, trailing zeros trimmed."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        cs = [spec.element(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @staticmethod
    def zero(spec: FieldSpec) -> Poly:
        return Poly(spec, [])

    @staticmethod
    def one(spec: FieldSpec) -> Poly:
        return Poly(spec, [spec.one()])

    @staticmethod
    def x(spec: FieldSpec) -> Poly:
        return Poly(spec, [spec.zero(), spec.one()])

    @staticmethod
    def constant(spec: FieldSpec, c) -> Poly:
        return Poly(spec, [spec.element(c)])

    @staticmethod
    def from_root(spec: FieldSpec, a) -> Poly:
        """The monic linear polynomial x - a."""
        return Poly(spec, [-spec.element(a), spec.one()])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ZeroArgument("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == self.spec.one()

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return Poly(self.spec, [c * inv for c in self.coeffs])

    def _check(self, other) -> Poly:
        if isinstance(other, (int, FieldElement)):
            return Poly.constant(self.spec, other)
        if not isinstance(other, Poly) or other.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.spec.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Poly(self.spec, [u + v for u, v in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return Poly(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.spec)
        z = self.spec.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.spec, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Schoolbook long division: (q, r) with self = q*other + r and deg r < deg other.

        One loop updates the remainder in place in a plain list, from the top
        coefficient down, with a single inverse of the divisor's leading
        coefficient. On a prime field the list holds the residues mod p as ints;
        on an extension field it holds FieldElements. Only the returned quotient
        and remainder are built as Poly. Division in F_q[x] is unique, so the
        result equals that of subtracting one shifted multiple per quotient term.
        """
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        spec = self.spec
        d = other.degree
        if self.degree < d:
            return Poly.zero(spec), self
        inv = other.leading().inverse()
        q = [0] * (self.degree - d + 1)
        if spec.h == 1:
            p = spec.p
            inv = inv.coeffs[0]
            r = [c.coeffs[0] for c in self.coeffs]
            lower = [(j, c.coeffs[0]) for j, c in enumerate(other.coeffs[:-1]) if c.coeffs[0]]
            for k in range(len(q) - 1, -1, -1):
                c = r[k + d] * inv % p
                if c:
                    q[k] = c
                    for j, b in lower:
                        r[k + j] = (r[k + j] - c * b) % p
        else:
            r = list(self.coeffs)
            lower = [(j, c) for j, c in enumerate(other.coeffs[:-1]) if not c.is_zero()]
            for k in range(len(q) - 1, -1, -1):
                c = r[k + d] * inv
                if not c.is_zero():
                    q[k] = c
                    for j, b in lower:
                        r[k + j] = r[k + j] - c * b
        return Poly(spec, q), Poly(spec, r[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ParseError("negative polynomial power")
        result = Poly.one(self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> Poly:
        return Poly(
            self.spec,
            [self.spec.element(i) * c for i, c in enumerate(self.coeffs)][1:],
        )

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.constant(self.spec, other)
        return isinstance(other, Poly) and self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def sort_key(self):
        return (self.degree, tuple(c.coeffs for c in reversed(self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(repr(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != self.spec.one() else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != self.spec.one() else f"x^{i}")
        return " + ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_ext_gcd(a: Poly, b: Poly):
    """Returns (g, s, t) monic g = gcd with s*a + t*b = g."""
    spec = a.spec
    r0, r1 = a, b
    s0, s1 = Poly.one(spec), Poly.zero(spec)
    t0, t1 = Poly.zero(spec), Poly.one(spec)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = r0.leading().inverse()
    c = Poly.constant(spec, inv)
    return r0.monic(), s0 * c, t0 * c


def poly_pow_mod(base: Poly, n: int, mod: Poly) -> Poly:
    result = Poly.one(base.spec)
    base = base % mod
    while n:
        if n & 1:
            result = result * base % mod
        base = base * base % mod
        n >>= 1
    return result


class Factorization:
    """unit times product of distinct monic irreducible powers, canonically sorted."""

    __slots__ = ("spec", "unit", "factors")

    def __init__(self, spec: FieldSpec, unit: FieldElement, factors):
        self.spec = spec
        self.unit = spec.element(unit)
        self.factors = tuple(sorted(factors, key=lambda fm: fm[0].sort_key()))

    def expand(self) -> Poly:
        out = Poly.constant(self.spec, self.unit)
        for f, m in self.factors:
            out = out * f**m
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Factorization)
            and self.spec == other.spec
            and self.unit == other.unit
            and self.factors == other.factors
        )

    def __repr__(self):
        body = " * ".join(f"({f})^{m}" if m > 1 else f"({f})" for f, m in self.factors)
        return f"{self.unit} * {body}" if body else repr(self.unit)


def _poly_pth_root(f: Poly) -> Poly:
    """Inverse of g -> g^p on polynomials of the form sum a_i x^{p*i}."""
    p = f.spec.p
    coeffs = []
    for i in range(0, len(f.coeffs), p):
        coeffs.append(f.coeffs[i].pth_root())
    return Poly(f.spec, coeffs)


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Yun-style decomposition valid in characteristic p.

    Returns (squarefree monic g, multiplicity m) pairs with f (made monic)
    equal to the product of g^m.
    """
    p = f.spec.p
    f = f.monic()
    out: list[tuple[Poly, int]] = []
    if f.degree == 0:
        return out
    df = f.derivative()
    if df.is_zero():
        # f is a p-th power
        for g, m in _squarefree_parts(_poly_pth_root(f)):
            out.append((g, m * p))
        return out
    c = poly_gcd(f, df)
    w = f // c
    m = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        part = w // y
        if part.degree > 0:
            out.append((part, m))
        w = y
        c = c // y
        m += 1
    if c.degree > 0:
        # the leftover is an exact p-th power
        for g, mm in _squarefree_parts(_poly_pth_root(c)):
            out.append((g, mm * p))
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Splits a squarefree monic f into (product of irreducibles of degree d, d)."""
    spec = f.spec
    q = spec.q
    out = []
    h = Poly.x(spec)
    d = 0
    rest = f
    while rest.degree > 2 * d:
        d += 1
        h = poly_pow_mod(h, q, rest)
        g = poly_gcd(h - Poly.x(spec), rest)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _random_poly(spec: FieldSpec, degree_below: int, rng: random.Random) -> Poly:
    coeffs = []
    for _ in range(degree_below):
        coeffs.append(spec.element([rng.randrange(spec.p) for _ in range(spec.h)]))
    return Poly(spec, coeffs)


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
    spec = f.spec
    if f.degree == d:
        return [f.monic()]
    q = spec.q
    one = Poly.one(spec)
    while True:
        a = _random_poly(spec, f.degree, rng)
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < f.degree:
            break
        if q % 2 == 1:
            b = poly_pow_mod(a, (q**d - 1) // 2, f) - one
        else:
            # characteristic 2: trace map over F_2
            t = a % f
            b = t
            for _ in range(spec.h * d - 1):
                t = t * t % f
                b = (b + t) % f
        g = poly_gcd(b, f)
        if 0 < g.degree < f.degree:
            break
    left = _equal_degree(g, d, rng)
    right = _equal_degree(f // g, d, rng)
    return left + right


def _canonical_bytes(f: Poly) -> bytes:
    spec = f.spec
    parts = [spec.p, spec.h]
    if spec.modulus:
        parts.extend(spec.modulus)
    for c in f.coeffs:
        parts.extend(c.coeffs)
    return ",".join(str(v) for v in parts).encode()


def factorize(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles.

    The factors are unique; the random splitting trials are drawn from a stream
    seeded by f itself, so the work done for a given f is reproducible too.
    """
    if f.is_zero():
        raise ZeroArgument("cannot factor the zero polynomial")
    spec = f.spec
    unit = f.leading()
    # the "|0" suffix keeps the trials, and so the running time, of earlier versions
    digest = hashlib.blake2b(_canonical_bytes(f) + b"|0", digest_size=8).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    factors: dict[Poly, int] = {}
    for g, mult in _squarefree_parts(f):
        for prod, d in _distinct_degree(g):
            for irr in _equal_degree(prod, d, rng):
                factors[irr] = factors.get(irr, 0) + mult
    return Factorization(spec, unit, factors.items())


def is_irreducible(f: Poly) -> bool:
    """Rabin test: x^{q^n} = x mod f and gcd conditions at maximal prime divisors."""
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    spec = f.spec
    q = spec.q
    n = f.degree
    x = Poly.x(spec)
    for ell in _prime_factors(n):
        h = poly_pow_mod(x, q ** (n // ell), f) - x
        if poly_gcd(h, f).degree != 0:
            return False
    return ((poly_pow_mod(x, q**n, f) - x) % f).is_zero()


class RatFun:
    """Rational function num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("spec", "num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly.one(num.spec)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.spec != den.spec:
            raise FieldMismatch("numerator and denominator over different fields")
        if num.is_zero():
            den = Poly.one(num.spec)
        else:
            if den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num // g
                    den = den // g
            lead = den.leading()
            if lead != den.spec.one():
                inv = Poly.constant(den.spec, lead.inverse())
                num = num * inv
                den = den * inv
        self.spec = num.spec
        self.num = num
        self.den = den

    @staticmethod
    def zero(spec: FieldSpec) -> RatFun:
        return RatFun(Poly.zero(spec))

    @staticmethod
    def one(spec: FieldSpec) -> RatFun:
        return RatFun(Poly.one(spec))

    @staticmethod
    def constant(spec: FieldSpec, c) -> RatFun:
        return RatFun(Poly.constant(spec, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _check(self, other) -> RatFun:
        if isinstance(other, (int, FieldElement)):
            return RatFun(Poly.constant(self.spec, other))
        if isinstance(other, Poly):
            return RatFun(other)
        if not isinstance(other, RatFun) or other.spec != self.spec:
            raise FieldMismatch("rational functions over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        other = self._check(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n: int):
        if n >= 0:
            return RatFun(self.num**n, self.den**n)
        if self.is_zero():
            raise DivisionByZero("negative power of zero")
        return RatFun(self.den ** (-n), self.num ** (-n))

    def inverse(self) -> RatFun:
        return RatFun.one(self.spec) / self

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement, Poly)):
            other = self._check(other)
        return (
            isinstance(other, RatFun)
            and self.spec == other.spec
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == Poly.one(self.spec):
            return repr(self.num)
        return f"({self.num})/({self.den})"


def poly_place_multiplicity(f: Poly, pi: Poly) -> int:
    """Multiplicity of the monic irreducible pi in f (f nonzero)."""
    if f.is_zero():
        raise ZeroArgument("zero polynomial")
    m = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero():
            return m
        f = q
        m += 1


def ratfun_valuation(r: RatFun, P) -> int:
    """Order of r at the place P of k(x)."""
    from .places import Place

    if r.is_zero():
        raise ZeroArgument("valuation of zero is +infinity")
    if not isinstance(P, Place):
        raise ParseError("expected a Place")
    if P.is_infinite:
        return r.den.degree - r.num.degree
    pi = P.poly
    return poly_place_multiplicity(r.num, pi) - poly_place_multiplicity(r.den, pi)


def weak_approximant(spec: FieldSpec, constraints) -> RatFun:
    """A rational function with exactly the prescribed valuations.

    constraints: sequence of (Place, target valuation). Valuations at
    unconstrained finite places come out nonnegative. The infinite target
    must satisfy the product-formula bound t_inf <= -sum(t_i * d_i); no
    rational function exists otherwise.
    """
    from .places import Place

    finite = []
    inf_target = None
    seen = set()
    for P, t in constraints:
        if P in seen:
            raise ParseError(f"duplicate constraint at place {P}")
        seen.add(P)
        if P.is_infinite:
            inf_target = t
        else:
            finite.append((P, t))
    num = Poly.one(spec)
    den = Poly.one(spec)
    weighted = 0
    for P, t in finite:
        weighted += t * P.degree
        if t > 0:
            num = num * P.poly**t
        elif t < 0:
            den = den * P.poly ** (-t)
    r = RatFun(num, den)
    if inf_target is None:
        return r
    deficit = -weighted - inf_target  # extra zero-degree needed at finite places
    if deficit < 0:
        raise ParseError(
            "no rational function meets the infinite-place target: "
            f"requires total finite degree {-inf_target - weighted} < 0"
        )
    if deficit == 0:
        return r
    used = {P.poly for P, _ in finite}
    filler = _unused_irreducible(spec, used, deficit)
    return r * RatFun(filler)


def _unused_irreducible(spec: FieldSpec, used: set, total_degree: int) -> Poly:
    """A degree-total_degree product of powers of one fresh irreducible."""
    for d in range(1, total_degree + 1):
        if total_degree % d != 0:
            continue
        cand = _fresh_irreducible(spec, d, used)
        if cand is not None:
            return cand ** (total_degree // d)
    raise ParseError("could not locate an unused irreducible for degree padding")


def _fresh_irreducible(spec: FieldSpec, d: int, used: set):
    if d == 1:
        for a in spec.elements():
            cand = Poly.from_root(spec, a)
            if cand not in used:
                return cand
        return None
    # scan monic degree-d polynomials in canonical coefficient order
    def rec(prefix):
        if len(prefix) == d:
            cand = Poly(spec, prefix + [spec.one()])
            if cand not in used and is_irreducible(cand):
                return cand
            return None
        for a in spec.elements():
            got = rec(prefix + [a])
            if got is not None:
                return got
        return None

    return rec([])
