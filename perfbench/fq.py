"""The benchmark's own finite-field and polynomial arithmetic.

Independent of towerdiff: the generators and the reference checker use only
this module, so a defect in the program's arithmetic cannot hide itself.

An element of F_q (q = p^h) is an int in [0, q): for h > 1 its base-p digits,
least significant first, are the coordinates on 1, a, ..., a^(h-1) where a is
a root of the field's modulus. That matches the JSON coordinate lists the
program reads and writes. Polynomials are lists of elements, ascending, with
no trailing zeros (the zero polynomial is []).
"""

from __future__ import annotations


class GF:
    """F_{p^h}; extension fields are small (q <= 49 here) and use full tables."""

    def __init__(self, p: int, h: int = 1, modulus=None):
        self.p, self.h, self.q = p, h, p**h
        self.modulus = list(modulus) if modulus else None
        if h == 1:
            return
        q = self.q
        digits = [self._digits(a) for a in range(q)]
        self._add = [[self._pack([(x + y) % p for x, y in zip(digits[a], digits[b])])
                      for b in range(q)] for a in range(q)]
        self._neg = [self._pack([(-x) % p for x in digits[a]]) for a in range(q)]
        self._mul = [[self._pack(self._mulmod(digits[a], digits[b])) for b in range(q)]
                     for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)

    def _digits(self, a):
        return [(a // self.p**i) % self.p for i in range(self.h)]

    def _pack(self, digits):
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _mulmod(self, x, y):
        p, h, mod = self.p, self.h, self.modulus
        prod = [0] * (2 * h - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] = (prod[i + j] + a * b) % p
        for k in range(len(prod) - 1, h - 1, -1):
            c = prod[k]
            if c:
                for i in range(h + 1):
                    prod[k - h + i] = (prod[k - h + i] - c * mod[i]) % p
        return prod[:h]

    # ------------------------------------------------------------ elements
    def add(self, a, b):
        return (a + b) % self.p if self.h == 1 else self._add[a][b]

    def neg(self, a):
        return (-a) % self.p if self.h == 1 else self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return a * b % self.p if self.h == 1 else self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p) if self.h == 1 else self._inv[a]

    def pow(self, a, n):
        if self.h == 1:
            return pow(a, n, self.p)
        out = 1
        while n:
            if n & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            n >>= 1
        return out

    def to_json(self, a):
        return a if self.h == 1 else self._digits(a)

    def from_json(self, doc):
        if self.h == 1:
            if not isinstance(doc, int):
                raise ValueError(f"expected an integer field element, got {doc!r}")
            return doc % self.p
        if not isinstance(doc, list) or len(doc) != self.h:
            raise ValueError(f"expected {self.h} coordinates, got {doc!r}")
        return self._pack([int(c) % self.p for c in doc])

    def field_json(self):
        out = {"p": self.p, "h": self.h}
        if self.h > 1:
            out["modulus"] = list(self.modulus)
        return out

    # --------------------------------------------------------- polynomials
    def trim(self, f):
        f = list(f)
        while f and f[-1] == 0:
            f.pop()
        return f

    def padd(self, f, g):
        n = max(len(f), len(g))
        f = f + [0] * (n - len(f))
        g = g + [0] * (n - len(g))
        return self.trim([self.add(a, b) for a, b in zip(f, g)])

    def psub(self, f, g):
        return self.padd(f, [self.neg(b) for b in g])

    def pscale(self, f, c):
        return self.trim([self.mul(a, c) for a in f])

    def pmul(self, f, g):
        if not f or not g:
            return []
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.trim(out)

    def ppow(self, f, n):
        out = [1]
        while n:
            if n & 1:
                out = self.pmul(out, f)
            f = self.pmul(f, f)
            n >>= 1
        return out

    def pdivmod(self, f, g):
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(f)
        inv = self.inv(g[-1])
        dg = len(g) - 1
        q = [0] * max(len(r) - dg, 0)
        while len(r) > dg:
            c = self.mul(r[-1], inv)
            shift = len(r) - 1 - dg
            q[shift] = c
            for i, b in enumerate(g):
                r[shift + i] = self.sub(r[shift + i], self.mul(c, b))
            r = self.trim(r)
        return self.trim(q), r

    def ppowmod(self, f, n, mod):
        out = [1]
        f = self.pdivmod(f, mod)[1]
        while n:
            if n & 1:
                out = self.pdivmod(self.pmul(out, f), mod)[1]
            f = self.pdivmod(self.pmul(f, f), mod)[1]
            n >>= 1
        return out

    def pmonic(self, f):
        return self.pscale(f, self.inv(f[-1])) if f else f

    def pgcd(self, f, g):
        while g:
            f, g = g, self.pdivmod(f, g)[1]
        return self.pmonic(f)

    def linear(self, b):
        """x - b."""
        return [self.neg(b), 1]

    def multiplicity(self, f, b):
        """Order of vanishing of the nonzero polynomial f at x = b."""
        m = 0
        lin = self.linear(b)
        while True:
            q, r = self.pdivmod(f, lin)
            if r:
                return m
            f, m = q, m + 1


# Irreducible quadratic moduli for the extension fields the workloads use.
QUADRATIC_MODULI = {3: [1, 0, 1], 5: [2, 0, 1], 7: [1, 0, 1]}
