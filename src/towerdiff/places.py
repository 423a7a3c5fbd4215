"""Places of the rational function field K = k(x) and their residue fields."""

from __future__ import annotations

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InfinitePlaceUnsupported,
    NegativeValuation,
    ParseError,
)
from .ff import FieldSpec
from .poly import Poly, RatFun, is_irreducible, poly_ext_gcd, ratfun_valuation


class Place:
    """A monic irreducible of k[x], or the place at infinity."""

    __slots__ = ("spec", "poly", "degree")

    def __init__(self, spec: FieldSpec, poly: Poly | None):
        self.spec = spec
        self.poly = poly
        self.degree = 1 if poly is None else poly.degree

    @staticmethod
    def finite(poly: Poly) -> Place:
        if not poly.is_monic():
            raise ParseError("a finite place needs a monic polynomial")
        if not is_irreducible(poly):
            raise ParseError(f"{poly} is reducible, not a place")
        return Place(poly.spec, poly)

    @staticmethod
    def infinite(spec: FieldSpec) -> Place:
        return Place(spec, None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    def sort_key(self):
        # the infinite place sorts last
        if self.is_infinite:
            return (1, (0, ()))
        return (0, self.poly.sort_key())

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.spec == other.spec
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.spec, self.poly))

    def __repr__(self):
        return "infinity" if self.is_infinite else f"({self.poly})"


class ResidueField:
    """F_q[x]/(p_P(x)) for a finite place P; elements are reduced Polys."""

    __slots__ = ("place", "modulus")

    def __init__(self, place: Place):
        if place.is_infinite:
            raise InfinitePlaceUnsupported("no residue field materialized at infinity")
        self.place = place
        self.modulus = place.poly

    @property
    def spec(self) -> FieldSpec:
        return self.place.spec

    @property
    def cardinality(self) -> int:
        return self.spec.q**self.place.degree

    def reduce(self, f: Poly) -> Poly:
        return f % self.modulus

    def one(self) -> Poly:
        return Poly.one(self.spec)

    def sub(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a - b)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a * b)

    def inv(self, a: Poly) -> Poly:
        a = self.reduce(a)
        if a.is_zero():
            raise DivisionByZero("inverse of zero in a residue field")
        g, s, _ = poly_ext_gcd(a, self.modulus)
        if g.degree != 0:
            raise DivisionByZero("element not invertible; modulus reducible?")
        return self.reduce(s * Poly.constant(self.spec, g.leading().inverse()))

    def pow(self, a: Poly, n: int) -> Poly:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one()
        base = self.reduce(a)
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def pth_root(self, a: Poly) -> Poly:
        """Inverse Frobenius in F_{q^d}: a^(|F|/p)."""
        p = self.spec.p
        return self.pow(a, self.cardinality // p)

    def elements(self):
        spec = self.spec
        d = self.place.degree

        def rec(prefix):
            if len(prefix) == d:
                yield Poly(spec, prefix)
                return
            for c in spec.elements():
                yield from rec(prefix + [c])

        yield from rec([])

    def _fp_dim(self) -> int:
        return self.spec.h * self.place.degree

    def _to_fp_vector(self, a: Poly) -> list[int]:
        a = self.reduce(a)
        d = self.place.degree
        h = self.spec.h
        vec = []
        for i in range(d):
            coeff = a.coeffs[i] if i < len(a.coeffs) else self.spec.zero()
            vec.extend(coeff.coeffs[:h])
        return vec

    def _from_fp_vector(self, vec) -> Poly:
        d = self.place.degree
        h = self.spec.h
        coeffs = []
        for i in range(d):
            coeffs.append(self.spec.element(list(vec[i * h : (i + 1) * h])))
        return Poly(self.spec, coeffs)

    def _basis(self):
        n = self._fp_dim()
        for j in range(n):
            vec = [0] * n
            vec[j] = 1
            yield self._from_fp_vector(vec)


def residue(r: RatFun, P: Place) -> Poly:
    """Image of r in the residue field at a finite place of nonnegative order."""
    if r.is_zero():
        return Poly.zero(P.spec)
    if P.is_infinite:
        raise InfinitePlaceUnsupported("residues are taken at finite places only")
    if ratfun_valuation(r, P) < 0:
        raise NegativeValuation(f"{r} has a pole at {P}")
    if r.spec != P.spec:
        raise FieldMismatch("place and function over different fields")
    rf = ResidueField(P)
    return rf.mul(rf.reduce(r.num), rf.inv(rf.reduce(r.den)))


def _solve_mod_p(matrix, rhs, p):
    """Gaussian elimination over F_p; returns a solution vector or None."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] % p != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(v * inv) % p for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] % p != 0:
                factor = aug[i][c]
                aug[i] = [(v - factor * w) % p for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] % p != 0:
            return None
    sol = [0] * cols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][cols] % p
    return sol


def artin_schreier_image_test(rf: ResidueField, a: Poly):
    """Decides whether a = w^p - w is solvable in the residue field.

    Returns ("in_image", w) with an explicit witness, or ("not_in_image", None).
    The map w -> w^p - w is F_p-linear, so this is one linear solve mod p.
    """
    p = rf.spec.p
    a = rf.reduce(a)
    n = rf._fp_dim()
    columns = []
    for b in rf._basis():
        image = rf.sub(rf.pow(b, p), b)
        columns.append(rf._to_fp_vector(image))
    # matrix[i][j] = i-th coordinate of the image of basis vector j
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    sol = _solve_mod_p(matrix, rf._to_fp_vector(a), p)
    if sol is None:
        return ("not_in_image", None)
    w = rf._from_fp_vector(sol)
    return ("in_image", w)
