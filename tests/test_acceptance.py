"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single CRITERION line on success; a failure surfaces as a
normal pytest failure for that criterion only.
"""

import time

import pytest

from conftest import load_fixture
from reference import identity_matrix, matrix_mul
from towerdiff.algebra import AlgebraElement, alg_mul, valuation
from towerdiff.basis import (
    BasisElement,
    enumerate_basis,
    enumerate_basis_single_as,
    enumerate_basis_single_kummer,
    gamma_indices,
    holomorphy_check,
    invariant_table,
    lambda_rho,
    monomial_differential_valuation,
)
from towerdiff.errors import DecompositionInconsistent
from towerdiff.ff import FieldSpec
from towerdiff.galois import (
    action_matrix,
    cyclic_decomposition,
    nilpotency_check,
)
from towerdiff.places import Place
from towerdiff.poly import Poly, RatFun
from towerdiff.standard_form import as_weak_standard_form, elementary_abelian_merge
from towerdiff.tower import analyze, genus, tracked_place

ALL_FIXTURES = [
    "artin_mumford_p3",
    "as_genus2_f3",
    "elliptic_f5",
    "fermat_n3_f7",
    "hermitian_p3",
    "mixed_tower_f3",
]


def report(n, text):
    print(f"\nCRITERION {n}: PASS - {text}")


def test_criterion_1_genus_identities():
    t0 = time.time()
    cases = {
        "artin_mumford_p3": 4,  # (p-1)^2
        "hermitian_p3": 3,  # p(p-1)/2
        "fermat_n3_f7": 1,  # (n-1)(n-2)/2
        "elliptic_f5": 1,
    }
    for name, expected in cases.items():
        d = load_fixture(name)
        t_one = time.time()
        assert genus(d) == expected, name
        assert time.time() - t_one < 1.0, f"{name} exceeded 1 s"
    report(1, f"4 genus identities exact in {time.time() - t0:.2f} s")


def test_criterion_2_basis_count_equals_genus(suite):
    t0 = time.time()
    assert len(suite) >= 200
    for name in ALL_FIXTURES:
        d = load_fixture(name)
        profile = analyze(d)
        assert len(enumerate_basis(d, profile=profile)) == genus(d, profile=profile), name
    for i, d in enumerate(suite):
        profile = analyze(d)
        assert len(enumerate_basis(d, profile=profile)) == genus(
            d, profile=profile
        ), f"random tower {i}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"|basis| = genus on {len(ALL_FIXTURES)} fixtures + {len(suite)} random towers in {elapsed:.1f} s")


def test_criterion_3_holomorphy_oracle(suite):
    t0 = time.time()
    checked = 0
    boundary = 0
    for d in [load_fixture(n) for n in ALL_FIXTURES] + suite:
        profile, table = invariant_table(d)
        inf = tracked_place(d, Place.infinite(d.field))
        basis = enumerate_basis(d, profile=profile)
        # the map `basis --check` builds: infinity and (x) are walked once per tower
        places = dict(profile)
        places.setdefault(Place.infinite(d.field), inf)
        x_place = Place(d.field, Poly.x(d.field))
        if any(b.nu > 0 for b in basis) and x_place not in places:
            places[x_place] = tracked_place(d, x_place)
        for b in basis:
            assert holomorphy_check(d, b, places), b.pretty()
            checked += 1
        for mu in gamma_indices(d):
            t = table[mu]
            g_factors = [
                (P, lambda_rho(profile[P], mu)[0])
                for P in profile
                if not P.is_infinite and lambda_rho(profile[P], mu)[0] > 0
            ]
            cand = BasisElement(t - 1, mu, g_factors)
            assert monomial_differential_valuation(inf, cand) < 0, mu
            boundary += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(3, f"{checked} emitted elements pass, {boundary} boundary candidates fail at infinity, {elapsed:.1f} s")


def test_criterion_4_fermat_differential():
    d = load_fixture("fermat_n3_f7")
    F7 = d.field
    basis = enumerate_basis(d)
    assert len(basis) == 1
    elem = basis[0].to_algebra(F7)
    # multiply by y^2: a k-multiple of y^{-2} dx times y^2 is a constant
    prod = alg_mul(d.steps, elem, AlgebraElement.monomial(F7, (2,)))
    assert prod.level == 0
    r = prod.constant_part()
    assert r.num.degree == 0 and r.den.degree == 0 and not r.is_zero()
    report(4, "single Fermat differential is a constant multiple of y^-2 dx")


def test_criterion_5_single_step_specializations():
    for name in ("as_genus2_f3", "artin_mumford_p3", "hermitian_p3"):
        d = load_fixture(name)
        general = {(b.mu, b.nu, b.g_factors) for b in enumerate_basis(d)}
        special = {(b.mu, b.nu, b.g_factors) for b in enumerate_basis_single_as(d)}
        assert general == special, name
    for name in ("elliptic_f5", "fermat_n3_f7"):
        d = load_fixture(name)
        general = {(b.mu, b.nu, b.g_factors) for b in enumerate_basis(d)}
        special = {(b.mu, b.nu, b.g_factors) for b in enumerate_basis_single_kummer(d)}
        assert general == special, name
    report(5, "direct one-step recipes agree element-for-element on all 5 one-step fixtures")


def test_criterion_6_standard_form_algorithms():
    F3 = FieldSpec(3)
    x = Poly.x(F3)
    one = Poly.one(F3)
    r = RatFun(one, x**3) + RatFun(one, x)
    out, chain = as_weak_standard_form(r)
    assert out == RatFun(Poly.constant(F3, 2), x)
    assert len(chain) == 1 and chain.records[0]["w"] == RatFun(one, x)
    assert chain.replay_artin_schreier(r) == out

    F9 = FieldSpec(3, 2, [1, 0, 1])
    x9 = Poly.x(F9)
    one9 = Poly.one(F9)
    res = elementary_abelian_merge(
        RatFun(one9, x9 - one9), RatFun(one9, x9), F9.one(), F9.one(), 2
    )
    pred = {P.poly: v for P, v in res.predicted_valuations.items()}
    assert pred[x9] == -1 * (1 + 3 * 1)
    assert pred[x9 - one9] == -1
    for P, v in res.predicted_valuations.items():
        assert valuation(res.rhs, tracked_place(res.tower, P)) == v
    report(6, "weak standard form chain and merge valuations exact, oracle-confirmed")


def test_criterion_7_galois_suite():
    for name in ALL_FIXTURES:
        d = load_fixture(name)
        assert nilpotency_check(d), name
        n = len(enumerate_basis(d))
        ident = identity_matrix(d.field, n)
        for i, s in enumerate(d.steps):
            h = [0] * d.r
            h[i] = 1
            m = action_matrix(d, h)
            acc = ident
            for _ in range(s.degree):
                acc = matrix_mul(acc, m)
            assert acc == ident, (name, i)
        if d.r == 2:
            assert matrix_mul(
                action_matrix(d, [1, 0]), action_matrix(d, [0, 1])
            ) == action_matrix(d, [1, 1]), name
    d = load_fixture("as_genus2_f3")
    m = action_matrix(d, [1])
    ints = [[e.coeffs[0] for e in row] for row in m]
    assert ints == [[1, 1], [0, 1]]  # one 2x2 Jordan block
    rep = cyclic_decomposition(d)
    assert [(mod.mu_p, mult) for mod, mult in rep.entries] == [(2, 1)]
    assert rep.total_dimension() == 2 == rep.genus
    report(7, "representation checks, nilpotency, and the Jordan block all exact")


def test_criterion_8_decomposition_consistency():
    for name in ALL_FIXTURES:
        d = load_fixture(name)
        try:
            rep = cyclic_decomposition(d)
        except DecompositionInconsistent:
            pytest.fail(f"{name}: decomposition inconsistency surfaced")
        assert rep.total_dimension() == genus(d), name
    report(8, "sum of d*dim equals the genus on every cyclic fixture")
