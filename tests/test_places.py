"""Places, residue fields, and the additive image membership test."""

import json
from importlib import resources

import pytest

from towerdiff import places
from towerdiff.cli import main
from towerdiff.errors import InfinitePlaceUnsupported, NegativeValuation, ParseError
from towerdiff.ff import FieldSpec
from towerdiff.places import Place, ResidueField, artin_schreier_image_test, residue
from towerdiff.poly import Poly, RatFun
from towerdiff.standard_form import as_weak_standard_form, kummer_standard_form

F3 = FieldSpec(3)
F9 = FieldSpec(3, 2, [1, 0, 1])


def test_place_construction():
    x = Poly.x(F3)
    P = Place.finite(x - Poly.one(F3))
    assert P.degree == 1
    Q = Place.finite(x**2 + Poly.one(F3))
    assert Q.degree == 2
    with pytest.raises(ParseError):
        Place.finite(x**2 - Poly.one(F3))  # reducible
    assert Place.infinite(F3).is_infinite


def test_residue_of_ratfun():
    x = Poly.x(F3)
    one = Poly.one(F3)
    P = Place.finite(x - one)
    r = RatFun(x**2 + one, x)
    # r(1) = 2/1 = 2
    assert residue(r, P) == Poly.constant(F3, 2)
    with pytest.raises(NegativeValuation):
        residue(RatFun(one, x - one), P)
    with pytest.raises(InfinitePlaceUnsupported):
        residue(r, Place.infinite(F3))


def test_residue_field_inverse_and_pth_root():
    x = Poly.x(F3)
    P = Place.finite(x**2 + Poly.one(F3))  # residue field F_9
    rf = ResidueField(P)
    for a in rf.elements():
        if a == Poly.zero(F3):
            continue
        assert rf.mul(a, rf.inv(a)) == Poly.one(F3)
        assert rf.mul(rf.pth_root(a), rf.mul(rf.pth_root(a), rf.pth_root(a))) == a


def test_as_image_prime_residue_field():
    # over F_3 the map w -> w^3 - w is identically 0: only 0 is in the image
    x = Poly.x(F3)
    rf = ResidueField(Place.finite(x))
    status, w = artin_schreier_image_test(rf, Poly.zero(F3))
    assert status == "in_image"
    status, _ = artin_schreier_image_test(rf, Poly.one(F3))
    assert status == "not_in_image"


def test_as_image_degree_two_residue_field():
    # residue field F_9 = F_3[x]/(x^2+1): image of w^3 - w is {0, x, 2x}
    x = Poly.x(F3)
    rf = ResidueField(Place.finite(x**2 + Poly.one(F3)))
    status, _ = artin_schreier_image_test(rf, Poly.one(F3))
    assert status == "not_in_image"
    status, w = artin_schreier_image_test(rf, x)
    assert status == "in_image"
    # witness really works: w^3 - w = x in the residue field
    assert rf.sub(rf.mul(rf.mul(w, w), w), w) == x


def test_as_image_witness_over_extension_constants():
    x = Poly.x(F9)
    t = Poly.constant(F9, F9.element([0, 1]))
    rf = ResidueField(Place.finite(x))
    # Tr(t) = t + t^3 = 0, so t is in the image
    status, w = artin_schreier_image_test(rf, t)
    assert status == "in_image"
    assert rf.sub(rf.mul(rf.mul(w, w), w), w) == t


def _count_irreducibility_tests(monkeypatch):
    calls = []
    test = places.is_irreducible

    def counting(f):
        calls.append(f)
        return test(f)

    monkeypatch.setattr(places, "is_irreducible", counting)
    return calls


def test_normal_forms_take_factorize_factors_as_places(monkeypatch):
    # factorize certifies its factors irreducible; no place built from them is retested
    calls = _count_irreducibility_tests(monkeypatch)
    x = Poly.x(F3)
    one = Poly.one(F3)
    q = x**2 + one  # irreducible over F_3
    c = RatFun(x**3 * (x - one) * q**2, (x + one) ** 2)
    out, _ = kummer_standard_form(c, 2)
    assert out == RatFun(x * (x - one))
    r = RatFun(one, x**3) + RatFun(one, (x - one) ** 2) + RatFun(x, q)
    out, chain = as_weak_standard_form(r)
    assert len(chain) == 1 and chain.replay_artin_schreier(r) == out
    assert calls == []


def test_basis_check_retests_no_place(monkeypatch, capsys):
    calls = _count_irreducibility_tests(monkeypatch)
    path = resources.files("towerdiff") / "fixtures" / "artin_mumford_p3.json"
    assert main(["basis", "--check", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert any(rec["nu"] > 0 for rec in doc)
    assert calls == []
