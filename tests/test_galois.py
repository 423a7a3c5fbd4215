"""Galois action on the basis, nilpotency, and the module decomposition."""

import pytest

from reference import identity_matrix, matrix_mul, reference_action_matrix
from towerdiff import galois
from towerdiff.basis import enumerate_basis
from towerdiff.errors import ParseError, UnsupportedAction
from towerdiff.ff import FieldSpec
from towerdiff.galois import (
    action_matrix,
    cyclic_decomposition,
    nilpotency_check,
    submodule_generators,
)
from towerdiff.poly import Poly, RatFun
from towerdiff.tower import StepSpec, TowerDescriptor, genus, validate

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)


def as_ints(m):
    return [[e.coeffs[0] if e.spec.h == 1 else list(e.coeffs) for e in row] for row in m]


def test_action_identity(fixtures):
    for name in ("as_genus2_f3", "mixed_tower_f3", "elliptic_f5"):
        d = fixtures[name]
        m = action_matrix(d, [0] * d.r)
        assert m == identity_matrix(d.field, len(m)), name


def test_action_jordan_block(fixtures):
    d = fixtures["as_genus2_f3"]
    m = action_matrix(d, [1])
    assert as_ints(m) == [[1, 1], [0, 1]]


def test_action_character_scale(fixtures):
    d = fixtures["elliptic_f5"]
    m = action_matrix(d, [1])
    assert as_ints(m) == [[4]]  # zeta_2 = -1


def test_action_mixed_generators(fixtures):
    d = fixtures["mixed_tower_f3"]
    mk = action_matrix(d, [1, 0])
    ma = action_matrix(d, [0, 1])
    assert as_ints(mk) == [[2, 0], [0, 2]]  # both elements carry y1
    assert as_ints(ma) == [[1, 1], [0, 1]]


def test_action_is_representation(fixtures):
    for name in ("as_genus2_f3", "mixed_tower_f3", "fermat_n3_f7"):
        d = fixtures[name]
        spec = d.field
        gens = []
        for i, s in enumerate(d.steps):
            h = [0] * d.r
            h[i] = 1
            gens.append((action_matrix(d, h), s.degree))
        n = len(enumerate_basis(d))
        ident = identity_matrix(spec, n)
        for m, order in gens:
            # composition: sigma^order = 1
            acc = ident
            for _ in range(order):
                acc = matrix_mul(acc, m)
            assert acc == ident, name
        if d.r == 2:
            h12 = action_matrix(d, [1, 1])
            assert matrix_mul(gens[0][0], gens[1][0]) == h12, name


def test_nilpotency_on_fixtures(fixtures):
    for name, d in fixtures.items():
        assert nilpotency_check(d), name


def test_decomposition_as_genus2(fixtures):
    rep = cyclic_decomposition(fixtures["as_genus2_f3"])
    assert [(m.mu_p, m.mu_tame, mult) for m, mult in rep.entries] == [(2, (), 1)]
    assert rep.total_dimension() == rep.genus == 2
    assert rep.t_unr == 0


def test_decomposition_elliptic(fixtures):
    rep = cyclic_decomposition(fixtures["elliptic_f5"])
    assert [(m.mu_p, m.mu_tame, mult) for m, mult in rep.entries] == [(1, (1,), 1)]
    assert rep.total_dimension() == 1


def test_decomposition_all_cyclic_fixtures(fixtures):
    for name, d in fixtures.items():
        rep = cyclic_decomposition(d)
        assert rep.total_dimension() == genus(d), name


def test_decomposition_fermat_characters(fixtures):
    rep = cyclic_decomposition(fixtures["fermat_n3_f7"])
    assert [(m.mu_p, m.mu_tame, mult) for m, mult in rep.entries] == [(1, (1,), 1)]


def test_decomposition_rejects_bad_shape():
    x = Poly.x(F5)
    one = Poly.one(F5)
    d = TowerDescriptor(
        F5,
        [
            StepSpec("kummer", x * (x - one), 2),
            StepSpec("kummer", (x - one - one) * (x - Poly.constant(F5, 3)), 2),
        ],
    )
    with pytest.raises(UnsupportedAction):
        cyclic_decomposition(d)


def test_submodule_jordan_pair(fixtures):
    d = fixtures["as_genus2_f3"]
    gens = submodule_generators(d, (1,), 0)
    assert len(gens) == 2
    exps = {tuple(next(iter(g.terms))) for g in gens}
    assert exps == {(), (1,)}


def test_submodule_mixed(fixtures):
    d = fixtures["mixed_tower_f3"]
    gens = submodule_generators(d, (1, 1), 0)
    assert len(gens) == 2
    exps = {tuple(next(iter(g.terms))) for g in gens}
    assert exps == {(1,), (1, 1)}
    single = submodule_generators(d, (1, 0), 0)
    assert len(single) == 1


def test_submodule_requires_basis_index(fixtures):
    with pytest.raises(ParseError):
        submodule_generators(fixtures["as_genus2_f3"], (2,), 0)


def test_submodule_span_is_stable(fixtures):
    # the span of the generators maps into itself under every group generator
    from towerdiff.algebra import apply_automorphism

    d = fixtures["mixed_tower_f3"]
    gens = submodule_generators(d, (1, 1), 0)
    monos = {tuple(next(iter(g.terms))) for g in gens}
    for i in range(d.r):
        h = [0] * d.r
        h[i] = 1
        for g in gens:
            img = apply_automorphism(d, g, h)
            for exps in img.terms:
                assert tuple(exps) in monos


def _as_step(spec, poles):
    """y^p - y = sum of 1/(x - b)^m over the (b, m) in poles."""
    x = Poly.x(spec)
    c = RatFun.zero(spec)
    for b, m in poles:
        c = c + RatFun(Poly.one(spec), (x - Poly.constant(spec, b)) ** m)
    return StepSpec("artin_schreier", c)


def _kummer_step(spec, n, roots):
    """y^n = prod of (x - b)^e over the (b, e) in roots."""
    x = Poly.x(spec)
    c = Poly.one(spec)
    for b, e in roots:
        c = c * (x - Poly.constant(spec, b)) ** e
    return StepSpec("kummer", c, n)


# elementary-abelian, Kummer-then-Artin-Schreier and one-step Artin-Schreier
# towers over F_5 and F_7, with their genera
SHAPES = {
    "ea_f5": (F5, [_as_step(F5, [(0, 2)]), _as_step(F5, [(1, 1)])], 26),
    "ea_f7": (F7, [_as_step(F7, [(0, 3)]), _as_step(F7, [(1, 3)])], 120),
    "ka_f5": (F5, [_kummer_step(F5, 2, [(0, 1), (1, 1)]), _as_step(F5, [(2, 3)])], 12),
    "ka_f7": (F7, [_kummer_step(F7, 3, [(0, 1), (1, 2)]), _as_step(F7, [(2, 2), (3, 1)])], 39),
    "as_f5": (F5, [_as_step(F5, [(0, 3), (1, 2)])], 10),
    "as_f7": (F7, [_as_step(F7, [(0, 2), (1, 4)])], 18),
}


def shape_towers():
    out = {}
    for name, (spec, steps, g) in SHAPES.items():
        d = TowerDescriptor(spec, steps)
        assert validate(d).passed and genus(d) == g, name
        out[name] = d
    return out


def test_action_matrix_matches_ratfun_reference(fixtures):
    towers = dict(fixtures, **shape_towers())
    for name, d in towers.items():
        for i in range(d.r):
            h = [0] * d.r
            h[i] = 1
            assert action_matrix(d, h) == reference_action_matrix(d, h), (name, h)
    assert max(genus(d) for d in towers.values()) > 100


def test_nilpotency_on_shapes():
    for name, d in shape_towers().items():
        assert nilpotency_check(d), name


def test_nilpotency_fails_on_a_wrong_image_coefficient(fixtures, monkeypatch):
    # add 1 to one coefficient of the first image with more than one term
    real = galois.monomial_images
    changed = []

    def corrupted(d, h):
        image = real(d, h)

        def wrong(mu):
            out = dict(image(mu))
            if not changed and len(out) > 1:
                key = min(out)
                out[key] = out[key] + 1
                changed.append((mu, key))
            return out

        return wrong

    monkeypatch.setattr(galois, "monomial_images", corrupted)
    assert not nilpotency_check(fixtures["as_genus2_f3"])
    assert changed
