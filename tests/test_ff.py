"""Finite field arithmetic: exactness, inverses, roots, generators."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerdiff import ff
from towerdiff.errors import DivisionByZero, NotCoprimeToCharacteristic, ParseError
from towerdiff.ff import (
    _MR_BOUND,
    FieldSpec,
    _cyclotomic_values,
    _is_prime,
    _prime_factors,
    ff_has_nth_roots_of_unity,
    ff_pth_root,
)

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


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(1, 10**6),
    st.integers(1, 10**18),
    st.lists(st.integers(2, 10**5), min_size=1, max_size=4).map(math.prod),
))
def test_prime_factors_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert _prime_factors(n) == sorted(sympy.factorint(n))


def test_prime_factors_of_large_group_orders():
    # the multiplicative group of the safe prime 1000000000000007243
    assert _prime_factors(1000000000000007242) == [2, 500000000000003621]
    # a semiprime whose factors are both beyond the trial division
    assert _prime_factors(1000003 * 999983) == [999983, 1000003]
    assert _prime_factors(1009**2 * 2**5) == [2, 1009]
    # Phi_3(10000000000691): beyond the Miller-Rabin bound, composite, no factor below 1000
    assert _prime_factors(100000000013830000000478173) == [4513, 4657, 4758043723368575053]
    # Phi_3(10000000001573) is beyond the bound and passes every base, so it cannot be certified
    with pytest.raises(ParseError, match="too large to certify"):
        _prime_factors(100000000031470000002475903)
    with pytest.raises(ParseError, match="too large to certify"):
        _prime_factors(2 * (2**127 - 1))


def test_witness_proves_compositeness_beyond_the_bound():
    assert not _is_prime(100000000013830000000478173)
    assert not _is_prime(100000000000000000039 * 300000000000000000051)


def test_prime_factors_give_up_on_hard_composites_beyond_the_bound(monkeypatch):
    # two 21-digit primes: far more than 2^10 Pollard-Brent steps apart from luck
    monkeypatch.setattr(ff, "_BRENT_MAX_R", 2**10)
    with pytest.raises(ParseError, match="too large to factor"):
        _prime_factors(100000000000000000039 * 300000000000000000051)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(10**7, 10**9), min_size=4, max_size=5).map(math.prod))
def test_prime_factors_beyond_the_bound_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert n >= _MR_BOUND
    assert _prime_factors(n) == sorted(sympy.factorint(n))


@pytest.mark.parametrize("p, h", [(2, 1), (3, 2), (7, 4), (5, 6), (10007, 12)])
def test_cyclotomic_values_split_the_group_order(p, h):
    values = _cyclotomic_values(p, h)
    assert math.prod(values) == p**h - 1
    assert values[0] == p - 1
    assert len(values) == sum(1 for d in range(1, h + 1) if h % d == 0)


def test_field_spec_hash_is_that_of_its_parameters():
    # dict and set orders, and so the outputs, depend on these values
    for spec in (F3, F9, F25, FieldSpec(2, 3, [1, 1, 0, 1])):
        assert hash(spec) == hash((spec.p, spec.h, spec.modulus))
