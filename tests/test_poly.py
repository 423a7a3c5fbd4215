"""Polynomials and rational functions: factorization, gcd, valuations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerdiff.errors import DivisionByZero, FieldMismatch, ParseError
from towerdiff.ff import FieldSpec
from towerdiff.places import Place
from towerdiff.poly import (
    Poly,
    RatFun,
    factorize,
    is_irreducible,
    poly_ext_gcd,
    poly_gcd,
    ratfun_valuation,
    weak_approximant,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, 2, [1, 0, 1])
F4 = FieldSpec(2, 2, [1, 1, 1])
F49 = FieldSpec(7, 2, [1, 0, 1])
F25 = FieldSpec(5, 2, [2, 0, 1])
PRIME_FIELDS = [FieldSpec(2), F3, F5, FieldSpec(101), FieldSpec(1000003)]
EXTENSION_FIELDS = [F4, F9, F49]


def x_of(spec):
    return Poly.x(spec)


def test_factorize_recombines():
    x = x_of(F5)
    f = x**3 * (x - Poly.one(F5)) ** 2 * (x**2 + Poly.constant(F5, 2))
    fac = factorize(f)
    assert fac.expand() == f
    assert all(is_irreducible(g) for g, _ in fac.factors)


def test_factorize_char_p_multiplicities():
    # x^3 (x-1)^6 (x+1): the p-th power block must keep its multiplicity
    x = x_of(F3)
    one = Poly.one(F3)
    f = x**3 * (x - one) ** 6 * (x + one)
    fac = dict(factorize(f).factors)
    assert fac[x] == 3
    assert fac[x - one] == 6
    assert fac[x + one] == 1


def test_factorize_deterministic_and_seeded():
    x = x_of(F9)
    f = (x**2 + Poly.constant(F9, F9.generator())) * (x**3 + x + Poly.one(F9))
    assert factorize(f).factors == factorize(f).factors
    assert factorize(f).expand() == f


def test_factorize_char2_extension():
    x = x_of(F4)
    f = x**4 + x + Poly.one(F4)
    fac = factorize(f)
    assert fac.expand() == f
    assert sum(g.degree * m for g, m in fac.factors) == 4


def test_irreducibility():
    x = x_of(F3)
    assert is_irreducible(x**2 + Poly.one(F3))
    assert not is_irreducible(x**2 + Poly.constant(F3, 2))


def test_gcd_and_ext_gcd():
    x = x_of(F5)
    one = Poly.one(F5)
    a = (x - one) * (x + one) ** 2
    b = (x + one) * x
    g = poly_gcd(a, b)
    assert g == x + one
    g2, s, t = poly_ext_gcd(a, b)
    assert g2 == g
    assert s * a + t * b == g


def test_ratfun_normal_form():
    x = x_of(F5)
    one = Poly.one(F5)
    r = RatFun(x**2 - one, x - one)
    assert r == RatFun(x + one)
    assert r.den == one  # reduced and monic


def test_ratfun_constant_denominator_is_made_monic():
    x = x_of(F5)
    one = Poly.one(F5)
    r = RatFun(x + one, Poly.constant(F5, 3))
    assert r.den == one
    assert r.num == Poly.constant(F5, 2) * (x + one)  # 1/3 = 2 in F_5
    assert RatFun(Poly.zero(F5), Poly.constant(F5, 3)).den == one


def test_ratfun_valuations():
    x = x_of(F5)
    one = Poly.one(F5)
    r = RatFun(x**2, (x - one) ** 3)
    assert ratfun_valuation(r, Place.finite(x)) == 2
    assert ratfun_valuation(r, Place.finite(x - one)) == -3
    assert ratfun_valuation(r, Place.infinite(F5)) == 1


def test_weak_approximant_targets():
    x = x_of(F5)
    one = Poly.one(F5)
    targets = {
        Place.finite(x): -2,
        Place.finite(x - one): 3,
        Place.infinite(F5): -3,
    }
    a = weak_approximant(F5, list(targets.items()))
    for P, t in targets.items():
        assert ratfun_valuation(a, P) == t


def test_weak_approximant_infeasible_infinity():
    # product formula: v_inf cannot exceed -sum(v_i deg)
    x = x_of(F5)
    with pytest.raises(ParseError):
        weak_approximant(F5, [(Place.finite(x), 2), (Place.infinite(F5), 1)])


def test_poly_sort_key_total_order():
    x = x_of(F3)
    ps = [x, x + Poly.one(F3), x**2, Poly.one(F3)]
    ordered = sorted(ps, key=lambda f: f.sort_key())
    assert ordered[0].degree <= ordered[-1].degree


# ------------------------------------------------------------ division kernel


def reference_divmod(a, b):
    """Long division subtracting one shifted Poly multiple per quotient term."""
    q = Poly.zero(a.spec)
    r = a
    inv = b.leading().inverse()
    while not r.is_zero() and r.degree >= b.degree:
        t = Poly(a.spec, [0] * (r.degree - b.degree) + [r.leading() * inv])
        q = q + t
        r = r - t * b
    return q, r


def polys(spec, max_degree=30):
    """Polynomials whose length is drawn first, so high degrees are as likely as low."""
    coeff = st.lists(st.integers(0, spec.p - 1), min_size=spec.h, max_size=spec.h)
    return st.integers(0, max_degree + 1).flatmap(
        lambda n: st.lists(coeff, min_size=n, max_size=n)).map(
        lambda cs: Poly(spec, [spec.element(c) for c in cs]))


def dividend_and_divisor(fields):
    return st.sampled_from(fields).flatmap(
        lambda spec: st.tuples(polys(spec), polys(spec).filter(lambda f: not f.is_zero())))


def check_division(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert (a // b, a % b) == (q, r)
    return q, r


@settings(max_examples=200, deadline=None)
@given(dividend_and_divisor(PRIME_FIELDS))
def test_divmod_prime_fields_match_sympy(ab):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy import ZZ

    def descending(f):
        return [c.coeffs[0] for c in reversed(f.coeffs)]

    a, b = ab
    q, r = check_division(a, b)
    expected = galoistools.gf_div(descending(a), descending(b), a.spec.p, ZZ)
    assert (descending(q), descending(r)) == tuple(expected)


@settings(max_examples=150, deadline=None)
@given(dividend_and_divisor(EXTENSION_FIELDS))
def test_divmod_extension_fields_match_reference(ab):
    a, b = ab
    assert check_division(*ab) == reference_divmod(a, b)


@pytest.mark.parametrize("spec", [F5, F9], ids=["F5", "F9"])
def test_divmod_edge_cases(spec):
    x = x_of(spec)
    one = Poly.one(spec)
    two = Poly.constant(spec, 2)
    f = x**5 + two * x**2 + one
    # a constant divisor scales the dividend; the remainder is zero
    assert divmod(f, two) == (f * Poly.constant(spec, spec.element(2).inverse()), Poly.zero(spec))
    # a non-monic divisor
    q, r = check_division(f, two * x**2 + x + one)
    assert (q, r) == reference_divmod(f, two * x**2 + x + one)
    # deg a < deg b returns the dividend as the remainder
    assert divmod(x + one, x**2) == (Poly.zero(spec), x + one)
    assert divmod(Poly.zero(spec), x + one) == (Poly.zero(spec), Poly.zero(spec))
    assert divmod(f, 2) == divmod(f, two)
    with pytest.raises(DivisionByZero):
        divmod(f, Poly.zero(spec))
    with pytest.raises(DivisionByZero):
        f % 0


def test_divmod_rejects_mixed_fields():
    with pytest.raises(FieldMismatch):
        divmod(x_of(F3) ** 2, x_of(F5))
    with pytest.raises(FieldMismatch):
        divmod(x_of(F9) ** 2, x_of(F3))


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("spec, d", [(F4, 1), (F4, 2), (F4, 3), (F9, 1), (F9, 2), (F9, 3), (F25, 1), (F25, 2)],
                         ids=lambda v: f"F{v.q}" if isinstance(v, FieldSpec) else f"d{v}")
def test_irreducible_count_matches_gauss(spec, d):
    # Gauss: F_q[x] has (1/d) sum_{e | d} mu(d/e) q^e monic irreducibles of degree d
    expected = sum(mobius(d // e) * spec.q**e for e in range(1, d + 1) if d % e == 0) // d
    elements = list(spec.elements())
    monic = (Poly(spec, list(low) + [spec.one()]) for low in itertools.product(elements, repeat=d))
    assert sum(1 for f in monic if is_irreducible(f)) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F9, F49]).flatmap(lambda spec: polys(spec, max_degree=12)).filter(lambda f: f.degree >= 1))
def test_factorize_extension_fields_recombines_into_coprime_irreducibles(f):
    fac = factorize(f)
    assert fac.expand() == f
    for g, m in fac.factors:
        assert g.is_monic() and is_irreducible(g) and m >= 1
    for (g, _), (h, _) in itertools.combinations(fac.factors, 2):
        assert poly_gcd(g, h).degree == 0
