"""Quotient algebra arithmetic, tracked valuations, automorphism action."""

from itertools import product

import pytest

from reference import square_and_multiply_image
from towerdiff.algebra import (
    AlgebraElement,
    alg_mul,
    alg_pow,
    apply_automorphism,
    differential_valuation,
    valuation,
)
from towerdiff.basis import enumerate_basis
from towerdiff.errors import ParseError, UnsupportedAction, ValuationAmbiguous, ZeroArgument
from towerdiff.ff import FieldSpec
from towerdiff.galois import submodule_generators
from towerdiff.places import Place
from towerdiff.poly import Poly, RatFun
from towerdiff.tower import StepSpec, TowerDescriptor, tracked_place

F3 = FieldSpec(3)
F5 = FieldSpec(5)


def mixed_tower():
    x = Poly.x(F3)
    one = Poly.one(F3)
    return TowerDescriptor(
        F3,
        [
            StepSpec("kummer", x * (x - one), 2),
            StepSpec("artin_schreier", RatFun(one, x - one - one)),
        ],
    )


def test_reduction_kummer_relation():
    d = mixed_tower()
    x = Poly.x(F3)
    one = Poly.one(F3)
    y1 = AlgebraElement.monomial(F3, (1,))
    sq = alg_mul(d.steps, y1, y1)
    assert sq == AlgebraElement.from_ratfun(RatFun(x * (x - one)))


def test_reduction_artin_schreier_relation():
    d = mixed_tower()
    one = Poly.one(F3)
    x = Poly.x(F3)
    y2 = AlgebraElement.monomial(F3, (0, 1))
    cube = alg_pow(d.steps, y2, 3)
    assert cube == y2 + AlgebraElement.from_ratfun(RatFun(one, x - one - one))


def test_mul_collects_cross_terms():
    d = mixed_tower()
    y1 = AlgebraElement.monomial(F3, (1,))
    y2 = AlgebraElement.monomial(F3, (0, 1))
    prod = alg_mul(d.steps, y1 + y2, y1 - y2)
    # (y1 + y2)(y1 - y2) = y1^2 - y2^2
    assert prod == alg_mul(d.steps, y1, y1) - alg_mul(d.steps, y2, y2)


def test_valuation_weights():
    d = mixed_tower()
    x = Poly.x(F3)
    P = Place.finite(x)
    tp = tracked_place(d, P)
    assert tp.e_total == 2
    y1 = AlgebraElement.monomial(F3, (1,))
    assert valuation(y1, tp) == 1  # e=2, v(y1) = v(x(x-1))/2 * e = 1
    assert valuation(AlgebraElement.from_ratfun(RatFun(x)), tp) == 2
    with pytest.raises(ZeroArgument):
        valuation(AlgebraElement.zero(F3), tp)


def test_valuation_wild_place():
    d = mixed_tower()
    x = Poly.x(F3)
    one = Poly.one(F3)
    P = Place.finite(x - one - one)
    tp = tracked_place(d, P)
    assert tp.e_total == 3
    y2 = AlgebraElement.monomial(F3, (0, 1))
    assert valuation(y2, tp) == -1
    assert tp.different_exponent == 2 * (1 - (-1))  # (p-1) * jump


def test_valuation_ambiguity_same_class():
    # single Kummer step, two terms with equal exponent mod e at the tie
    x = Poly.x(F5)
    one = Poly.one(F5)
    d = TowerDescriptor(F5, [StepSpec("kummer", x * (x - one), 2)])
    tp = tracked_place(d, Place.finite(x))
    b = AlgebraElement.monomial(F5, (0,), RatFun(x)) + AlgebraElement.monomial(F5, (1,), RatFun.one(F5))
    # v(x) * 2 = 2 versus v(y) = 1: distinct, fine
    assert valuation(b, tp) == 1
    # a genuine same-class tie needs a level that is unramified at the place
    d2 = TowerDescriptor(
        F5,
        [
            StepSpec("kummer", x * (x - one), 2),
            StepSpec("kummer", (x - one - one) * (x - one - one - one), 2),
        ],
    )
    tp2 = tracked_place(d2, Place.finite(x))
    tie = AlgebraElement.monomial(F5, (0, 0), RatFun(x)) + AlgebraElement.monomial(
        F5, (0, 1), RatFun(x)
    )
    # y2 is unramified (weight 0) above (x): exponents agree mod e at every
    # ramified level, so the minimum cannot be certified
    with pytest.raises(ValuationAmbiguous):
        valuation(tie, tp2)


def test_differential_valuation_at_infinity():
    d = mixed_tower()
    tp = tracked_place(d, Place.infinite(F3))
    one_elem = AlgebraElement.from_ratfun(RatFun.one(F3))
    assert differential_valuation(one_elem, tp) == -2 * tp.e_total


def test_automorphism_shift_and_scale():
    d = mixed_tower()
    y1 = AlgebraElement.monomial(F3, (1,))
    y2 = AlgebraElement.monomial(F3, (0, 1))
    img = apply_automorphism(d, y2, [0, 1])
    assert img == y2 + AlgebraElement.from_ratfun(RatFun.one(F3))
    img = apply_automorphism(d, y1, [1, 0])
    assert img == -y1  # zeta_2 = -1
    # representation property on a product monomial
    m = alg_mul(d.steps, y1, y2)
    lhs = apply_automorphism(d, apply_automorphism(d, m, [1, 0]), [0, 1])
    rhs = apply_automorphism(d, m, [1, 1])
    assert lhs == rhs


def test_automorphism_rejects_dependent_levels():
    # second step defined with y1 in its c: moving y1 alone is unsupported
    x = Poly.x(F3)
    one = Poly.one(F3)
    d = TowerDescriptor(
        F3,
        [
            StepSpec("kummer", x * (x - one), 2),
            StepSpec(
                "artin_schreier",
                AlgebraElement.monomial(F3, (1,), RatFun(one, x - one - one)),
            ),
        ],
    )
    y1 = AlgebraElement.monomial(F3, (1,))
    with pytest.raises(UnsupportedAction):
        apply_automorphism(d, y1, [1, 0])


def test_automorphism_closed_form_matches_square_and_multiply(fixtures):
    # exponents up to step degree + 1 leave the reduced range on purpose
    cases = 0
    for name, d in fixtures.items():
        spec = d.field
        x = Poly.x(spec)
        one = Poly.one(spec)
        coeff = RatFun(x + one, x * x + x + one + one)
        elements = [
            AlgebraElement.monomial(spec, mu, coeff) + x
            for mu in product(*(range(s.degree + 2) for s in d.steps))
        ]
        if name == "mixed_tower_f3":
            elements += [
                g for b in enumerate_basis(d) for g in submodule_generators(d, b.mu, b.nu)
            ]
        for h in product((0, 1), repeat=d.r):
            for a in elements:
                assert apply_automorphism(d, a, h) == square_and_multiply_image(d, a, h), (name, h, a)
                cases += 1
    assert cases > 128


def test_automorphism_exponent_beyond_tower_height(fixtures):
    d = fixtures["mixed_tower_f3"]
    with pytest.raises(ParseError, match="beyond the tower height"):
        apply_automorphism(d, AlgebraElement.monomial(d.field, (0, 0, 1)), [1, 0])
