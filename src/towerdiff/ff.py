"""Exact arithmetic in the finite constant field k = F_{p^h}.

Elements are stored fully reduced (power-basis coordinates mod p), so
equality is plain coordinate comparison and values can be shared freely
across threads.
"""

from __future__ import annotations

from .errors import DivisionByZero, FieldMismatch, NotCoprimeToCharacteristic, ParseError


# Miller-Rabin on the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above _MR_BOUND is refused as ParseError."""
    if n >= _MR_BOUND:
        raise ParseError(f"{n} is too large to certify as prime (the bound is {_MR_BOUND})")
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
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """Description of F_{p^h}; for h > 1 the defining modulus is user-supplied."""

    __slots__ = ("p", "h", "modulus", "_gen_cache")

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
        if self.modulus is not None and not self._modulus_irreducible():
            raise ParseError("modulus is reducible over the prime field")

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
        if self._gen_cache is not None:
            return self._gen_cache
        order = self.q - 1
        primes = _prime_factors(order)
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
        return hash((self.p, self.h, self.modulus))

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

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FieldElement(self.spec, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        p, h = self.spec.p, self.spec.h
        if h == 1:
            return FieldElement(self.spec, (self.coeffs[0] * other.coeffs[0] % p,))
        prod = [0] * (2 * h - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % p
        mod = self.spec.modulus
        for k in range(len(prod) - 1, h - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(h):
                    prod[k - h + j] = (prod[k - h + j] - c * mod[j]) % p
        return FieldElement(self.spec, prod[:h])

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n: int):
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


def ff_pth_root(a: FieldElement) -> FieldElement:
    return a.pth_root()


def ff_has_nth_roots_of_unity(spec: FieldSpec, n: int) -> bool:
    if n < 1:
        raise ParseError("n must be positive")
    from math import gcd

    if gcd(n, spec.p) != 1:
        raise NotCoprimeToCharacteristic(f"{n} is divisible by the characteristic {spec.p}")
    return (spec.q - 1) % n == 0
