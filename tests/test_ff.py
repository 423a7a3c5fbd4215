"""Finite field arithmetic: exactness, inverses, roots, generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerdiff.errors import DivisionByZero, NotCoprimeToCharacteristic, ParseError
from towerdiff.ff import _MR_BOUND, FieldSpec, _is_prime, ff_has_nth_roots_of_unity, ff_pth_root

F3 = FieldSpec(3)
F9 = FieldSpec(3, 2, [1, 0, 1])
F25 = FieldSpec(5, 2, [2, 0, 1])


def test_prime_field_arithmetic():
    a, b = F3.element(2), F3.element(2)
    assert a + b == F3.element(1)
    assert a * b == F3.element(1)
    assert -a == F3.element(1)
    assert a - b == F3.zero()


def test_extension_field_modulus_reduction():
    t = F9.element([0, 1])
    assert t * t == F9.element([2, 0])  # t^2 = -1


def test_inverse_roundtrip_everywhere():
    for spec in (F3, F9, F25):
        for a in spec.elements():
            if a.is_zero():
                continue
            assert a * a.inverse() == spec.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F3.one() / F3.zero()


def test_pth_root_inverts_frobenius():
    for spec in (F9, F25):
        for a in spec.elements():
            r = ff_pth_root(a)
            assert r ** spec.p == a


def test_generator_has_full_order():
    for spec in (F3, F9, F25):
        g = spec.generator()
        seen = set()
        cur = spec.one()
        for _ in range(spec.q - 1):
            seen.add(cur)
            cur = cur * g
        assert len(seen) == spec.q - 1


def test_nth_roots_of_unity():
    assert ff_has_nth_roots_of_unity(F9, 4)
    assert not ff_has_nth_roots_of_unity(F3, 4)
    zeta = F9.nth_root_of_unity(4)
    assert zeta**4 == F9.one()
    assert zeta**2 != F9.one()


def test_nth_root_rejects_characteristic():
    with pytest.raises(NotCoprimeToCharacteristic):
        ff_has_nth_roots_of_unity(F9, 3)


def test_bad_field_specs():
    with pytest.raises(ParseError):
        FieldSpec(4)
    with pytest.raises(ParseError):
        FieldSpec(3, 2)  # missing modulus
    with pytest.raises(ParseError):
        FieldSpec(3, 2, [2, 0, 1])  # x^2 + 2 = (x-1)(x+1) mod 3


def test_element_coercion():
    assert F3.element(5) == F3.element(2)
    assert F9.element(1) == F9.one()
    assert F9.element([1, 2]) + F9.element([2, 1]) == F9.zero()


def test_primality_matches_trial_division_below_ten_thousand():
    primes = [n for n in range(10_000) if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(10_000) if _is_prime(n)] == primes


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 10**12), st.integers(2, _MR_BOUND - 1)))
def test_primality_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert _is_prime(n) == sympy.isprime(n)
    prime = sympy.nextprime(n)
    if prime < _MR_BOUND:
        assert _is_prime(prime)


@pytest.mark.parametrize("p", [561, 3215031751, 3825123056546413051, 0, 1, -2, -7])
def test_composite_and_small_characteristics_rejected(p):
    # 561 is a Carmichael number; the other two are strong pseudoprimes to the
    # prime bases 2..7 and 2..23 respectively
    with pytest.raises(ParseError, match="not prime"):
        FieldSpec(p)


def test_large_prime_characteristic_accepted():
    assert FieldSpec(1000000000000000003).p == 1000000000000000003
    assert _is_prime(3317044064679887385961813)  # the largest prime below the bound


def test_characteristic_beyond_primality_bound_refused():
    with pytest.raises(ParseError, match="too large"):
        FieldSpec(_MR_BOUND)
    with pytest.raises(ParseError, match="too large"):
        FieldSpec(2**127 - 1)
