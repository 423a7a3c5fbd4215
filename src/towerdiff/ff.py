"""Exact arithmetic in the finite constant field k = F_{p^h}.

Elements are stored fully reduced (power-basis coordinates mod p), so
equality is plain coordinate comparison and values can be shared freely
across threads.

On an extension field with q = p^h <= 2^8, arithmetic is table lookup: the
FieldSpec holds exp/log tables for the generator g and a Zech table
Z[n] = log(1 + g^n) (Lidl and Niederreiter, Finite Fields; K. Huber, IEEE
Trans. Inf. Theory 36, 1990). Products, inverses, powers and p-th roots add
or scale logarithms, and sums go through Z. The tables are built on first use,
once per field per process, with the coordinate multiplication, which stays
the arithmetic of extension fields with q > 2^8: there the q - 2 products of
the build cost more than a command's own arithmetic. A thread that finds the
tables unbuilt builds them itself; they are published with their log dict last,
so no thread reads a partial table. Without tables, an inverse is an extended
Euclid of the coordinates against the modulus over F_p. Prime fields multiply
residues mod p and use no tables.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import DivisionByZero, FieldMismatch, NotCoprimeToCharacteristic, ParseError


# Miller-Rabin on the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below _MR_BOUND.

    At or above the bound a witness still proves n composite, but an n that
    passes every base cannot be certified and is refused as ParseError.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ParseError(f"{n} is too large to certify as prime (the bound is {_MR_BOUND})")
    return True


# Pollard-Brent's cycle length cap on composites at or above _MR_BOUND, whose
# smallest prime factor may be too large to find; it gives up after about 2^22
# squarings, 1.9 s on a 40-digit semiprime (CPython 3.11, 2-vCPU x86-64 VM).
_BRENT_MAX_R = 2**20


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending.

    Trial division up to 1000, then Pollard-Brent on what is left, with every
    cofactor certified by _is_prime. A cofactor at or above its bound is
    ParseError when it passes every Miller-Rabin base, or when it is composite
    and Pollard-Brent finds no factor within _BRENT_MAX_R.
    """
    out = set()
    for d in range(2, 1000):
        if d * d > n:
            break
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            out.add(m)
            continue
        d = _brent_split(m, _BRENT_MAX_R if m >= _MR_BOUND else None)
        if d is None:
            raise ParseError(f"{m} is too large to factor (no factor found within {_BRENT_MAX_R} steps)")
        rest += [d, m // d]
    return sorted(out)


def _brent_split(n: int, max_r: int | None = None) -> int | None:
    """A proper divisor of the odd composite n (Brent, BIT 20, 1980).

    None when the cycle length would pass max_r.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if max_r is not None and r > max_r:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _cyclotomic_values(p: int, h: int) -> list[int]:
    """Phi_d(p) for each d | h; their product is p^h - 1."""
    phi = {}
    for d in range(1, h + 1):
        if h % d == 0:
            v = p**d - 1
            for e, w in phi.items():
                if d % e == 0:
                    v //= w
            phi[d] = v
    return list(phi.values())


def _coord_mul(p: int, h: int, modulus, a, b) -> tuple:
    """Product of two coordinate tuples of F_{p^h}, h > 1, reduced by modulus."""
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, h - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(h):
                prod[k - h + j] = (prod[k - h + j] - c * modulus[j]) % p
    return tuple(prod[:h])


def _coord_inverse(p: int, h: int, modulus, a) -> tuple:
    """Inverse of a nonzero coordinate tuple of F_{p^h}, h > 1.

    Extended Euclid of a against the irreducible modulus over F_p on int
    coefficient lists (ascending), keeping s with s * a = r (mod modulus)
    until r is a nonzero constant. poly_ext_gcd does the same on Poly, but
    its FieldElement arithmetic costs about 60 times as much per inverse.
    """

    def trim(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    r0, r1 = list(modulus), trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        inv = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):
            c, shift = r0[-1] * inv % p, len(r0) - len(r1)
            for j, y in enumerate(r1):
                r0[shift + j] = (r0[shift + j] - c * y) % p
            s0 += [0] * (shift + len(s1) - len(s0))
            for j, y in enumerate(s1):
                s0[shift + j] = (s0[shift + j] - c * y) % p
            trim(r0)
        r0, r1, s0, s1 = r1, r0, s1, trim(s0)
    inv = pow(r1[0], -1, p)
    return tuple(c * inv % p for c in s1) + (0,) * (h - len(s1))


# Fields with q up to this size use exp/log/Zech tables (h > 1 only). The
# build costs about 2.5 ms at F_{2^8}, 16 ms at F_{2^10} and 1.9 s at F_{2^16}
# (CPython 3.11 on a 2-vCPU x86-64 VM); above 2^8 a one-command run over a
# small tower loses more to it than the tables save.
_TABLE_MAX_Q = 2**8


@functools.lru_cache(maxsize=16)
def _zech_tables(p: int, h: int, modulus) -> tuple:
    """(powers, zech) for F_{p^h}: powers[i] = g^i as coordinates, zech[i] = log(1 + g^i).

    g is the first element of FieldSpec.elements() order with multiplicative
    order q - 1, which FieldSpec.generator's search returns on fields without
    tables. Each candidate's powers are multiplied out until one lands in H,
    the cyclic subgroup generated by the first candidate (H = {1} while that
    one is walked). If c^t is the first power in H and c^t = h0^j for the
    generator h0 of H, then c has order t * |H| / gcd(j, |H|), and when that is
    q - 1 the remaining powers are g^{ts+r} = h0^{js} g^r. A candidate that is
    not a generator puts its powers among the known non-generators. This costs
    q - 2 coordinate products when the first or second candidate tried is the
    generator.
    """
    n = p**h - 1
    one = (1,) + (0,) * (h - 1)
    sub, sub_log = [one], {one: 0}
    non_generators = set()
    for c in itertools.product(range(p), repeat=h):
        if not any(c) or c in sub_log or c in non_generators:
            continue
        powers = [one, c]
        while powers[-1] not in sub_log:
            powers.append(_coord_mul(p, h, modulus, powers[-1], c))
        t, j, m = len(powers) - 1, sub_log[powers[-1]], len(sub)
        if t * (m // math.gcd(j, m)) == n:
            table = powers[:t]
            for s in range(1, m):
                base = sub[j * s % m]
                table.append(base)
                for r in range(1, t):
                    table.append(_coord_mul(p, h, modulus, base, powers[r]))
            log = dict(zip(table, itertools.count()))
            zech = tuple(log.get(((e[0] + 1) % p,) + e[1:]) for e in table)
            return tuple(table), zech
        if m == 1:
            sub = powers[:-1]
            sub_log = dict(zip(sub, itertools.count()))
        else:
            non_generators.update(powers[1:-1])
    raise AssertionError("no multiplicative generator found")


class FieldSpec:
    """Description of F_{p^h}; for h > 1 the defining modulus is user-supplied."""

    __slots__ = ("p", "h", "modulus", "_gen_cache", "_hash", "_tab")

    def __init__(self, p: int, h: int = 1, modulus=None):
        if not _is_prime(p):
            raise ParseError(f"characteristic {p} is not prime")
        if h < 1:
            raise ParseError(f"extension degree {h} must be >= 1")
        if h == 1:
            if modulus is not None:
                raise ParseError("modulus must be absent for a prime field")
            self.modulus = None
        else:
            if modulus is None:
                raise ParseError("modulus required for h > 1")
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != h + 1:
                raise ParseError(f"modulus must have {h + 1} coefficients")
            if modulus[-1] != 1:
                raise ParseError("modulus must be monic")
            self.modulus = modulus
        self.p = p
        self.h = h
        self._gen_cache = None
        self._hash = hash((p, h, self.modulus))
        if self.modulus is not None and not self._modulus_irreducible():
            raise ParseError("modulus is reducible over the prime field")
        self._tab = _Tables(self) if h > 1 and p**h <= _TABLE_MAX_Q else None

    def _modulus_irreducible(self) -> bool:
        from .poly import Poly, is_irreducible

        prime = FieldSpec(self.p)
        f = Poly(prime, [prime.element(c) for c in self.modulus])
        return is_irreducible(f)

    @property
    def q(self) -> int:
        return self.p**self.h

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.h)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.h - 1))

    def element(self, value) -> FieldElement:
        """Coerce an int (prime subfield) or coefficient list to an element."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.h - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.h:
            raise ParseError(f"expected {self.h} coordinates, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def elements(self):
        """Iterate over the whole field (desk scale only)."""
        def rec(prefix):
            if len(prefix) == self.h:
                yield FieldElement(self, tuple(prefix))
                return
            for c in range(self.p):
                yield from rec(prefix + [c])

        yield from rec([])

    def generator(self) -> FieldElement:
        """A generator of the multiplicative group, found by search."""
        if self._tab is not None:
            return self._tab.generator()
        if self._gen_cache is not None:
            return self._gen_cache
        order = self.q - 1
        primes = sorted({ell for v in _cyclotomic_values(self.p, self.h) for ell in _prime_factors(v)})
        for a in self.elements():
            if a.is_zero():
                continue
            if all(a ** (order // ell) != self.one() for ell in primes):
                self._gen_cache = a
                return a
        raise AssertionError("no multiplicative generator found")

    def nth_root_of_unity(self, n: int) -> FieldElement:
        """A primitive n-th root of unity; requires n | q - 1."""
        if not ff_has_nth_roots_of_unity(self, n):
            raise NotCoprimeToCharacteristic(f"no primitive {n}th root of unity in F_{self.q}")
        return self.generator() ** ((self.q - 1) // n)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.h == other.h
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.h == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, h={self.h}, modulus={list(self.modulus)})"


class FieldElement:
    """Immutable element of F_{p^h} in reduced power-basis coordinates."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        self.spec = spec
        self.coeffs = tuple(int(c) % spec.p for c in coeffs)
        if len(self.coeffs) != spec.h:
            raise ParseError("wrong number of coordinates")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other) -> FieldElement:
        if isinstance(other, int):
            return self.spec.element(other)
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise FieldMismatch("operands from different fields")
        return other

    @staticmethod
    def _shared(spec: FieldSpec, coeffs: tuple) -> FieldElement:
        """An element from already reduced coordinates, skipping __init__."""
        e = object.__new__(FieldElement)
        e.spec = spec
        e.coeffs = coeffs
        return e

    def __add__(self, other):
        tab = self.spec._tab
        if tab is not None:
            return tab.add(self, other)
        other = self._check(other)
        return FieldElement(self.spec, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        tab = self.spec._tab
        if tab is not None:
            return tab.sub(self, other)
        other = self._check(other)
        return FieldElement(self.spec, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        tab = self.spec._tab
        if tab is not None:
            return tab.sub(tab.zero, self)
        return FieldElement(self.spec, [-a for a in self.coeffs])

    def __mul__(self, other):
        tab = self.spec._tab
        if tab is not None:
            return tab.mul(self, other)
        other = self._check(other)
        p, h = self.spec.p, self.spec.h
        if h == 1:
            return FieldElement(self.spec, (self.coeffs[0] * other.coeffs[0] % p,))
        coords = _coord_mul(p, h, self.spec.modulus, self.coeffs, other.coeffs)
        return FieldElement._shared(self.spec, coords)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        spec = self.spec
        if spec.h == 1 or spec._tab is not None:
            return self ** (spec.q - 2)
        return FieldElement._shared(spec, _coord_inverse(spec.p, spec.h, spec.modulus, self.coeffs))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n: int):
        tab = self.spec._tab
        if tab is not None:
            return tab.pow(self, n)
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def pth_root(self) -> FieldElement:
        """Inverse Frobenius: the unique r with r^p = self."""
        return self ** (self.spec.p ** (self.spec.h - 1))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.element(other)
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        if self.spec.h == 1:
            return str(self.coeffs[0])
        return str(list(self.coeffs))


class _Tables:
    """exp/log/Zech tables of one FieldSpec with h > 1 and q <= _TABLE_MAX_Q.

    exp[i] = g^i for 0 <= i < n = q - 1, log maps coordinates to i (None for
    zero) and zech[i] = log(1 + g^i). The elements in exp are shared. Every
    operation first reads log, which is None until _build fills the tables;
    _build assigns log last.
    """

    __slots__ = ("spec", "exp", "log", "zech", "n", "half", "zero")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.log = None
        self.n = spec.q - 1
        # -1 = g^(n/2) in odd characteristic, and -1 = 1 in characteristic 2
        self.half = self.n // 2 if spec.p != 2 else 0
        self.zero = FieldElement._shared(spec, (0,) * spec.h)

    def _build(self) -> dict:
        spec = self.spec
        powers, self.zech = _zech_tables(spec.p, spec.h, spec.modulus)
        self.exp = tuple(FieldElement._shared(spec, c) for c in powers)
        log = dict(zip(powers, range(self.n)))
        log[self.zero.coeffs] = None
        self.log = log
        return log

    def generator(self) -> FieldElement:
        self.log or self._build()
        return self.exp[1]

    def _operand(self, a: FieldElement, b) -> int | None:
        if b.__class__ is not FieldElement or b.spec is not self.spec:
            b = a._check(b)
        return self.log[b.coeffs]

    def _sum(self, la, lb) -> FieldElement:
        if la is None:
            return self.zero if lb is None else self.exp[lb % self.n]
        if lb is None:
            return self.exp[la]
        z = self.zech[(lb - la) % self.n]
        return self.zero if z is None else self.exp[(la + z) % self.n]

    def add(self, a: FieldElement, b) -> FieldElement:
        log = self.log or self._build()
        return self._sum(log[a.coeffs], self._operand(a, b))

    def sub(self, a: FieldElement, b) -> FieldElement:
        log = self.log or self._build()
        lb = self._operand(a, b)
        return self._sum(log[a.coeffs], None if lb is None else lb + self.half)

    def mul(self, a: FieldElement, b) -> FieldElement:
        la, lb = (self.log or self._build())[a.coeffs], self._operand(a, b)
        if la is None or lb is None:
            return self.zero
        return self.exp[(la + lb) % self.n]

    def pow(self, a: FieldElement, k: int) -> FieldElement:
        la = (self.log or self._build())[a.coeffs]
        if la is None:
            if k < 0:
                raise DivisionByZero("inverse of zero")
            return self.zero if k else self.exp[0]
        return self.exp[la * k % self.n]


def ff_pth_root(a: FieldElement) -> FieldElement:
    return a.pth_root()


def ff_has_nth_roots_of_unity(spec: FieldSpec, n: int) -> bool:
    if n < 1:
        raise ParseError("n must be positive")
    from math import gcd

    if gcd(n, spec.p) != 1:
        raise NotCoprimeToCharacteristic(f"{n} is divisible by the characteristic {spec.p}")
    return (spec.q - 1) % n == 0
