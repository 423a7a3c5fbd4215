"""Polynomials and rational functions: factorization, gcd, valuations."""

import pytest

from towerdiff.errors import ParseError
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
