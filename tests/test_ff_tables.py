"""Table-driven F_{p^h} arithmetic against plain coordinate arithmetic.

The reference below multiplies power-basis coordinates and reduces by the
modulus; it shares no code with towerdiff.ff.
"""

import itertools
import random
from collections import Counter
from importlib import resources

import pytest

from towerdiff import ff
from towerdiff.cli import main
from towerdiff.errors import DivisionByZero
from towerdiff.ff import FieldSpec

TABLE_FIELDS = [
    FieldSpec(2, 2, [1, 1, 1]),
    FieldSpec(2, 3, [1, 1, 0, 1]),
    FieldSpec(3, 2, [1, 0, 1]),  # x is not a generator: its order is 4
    FieldSpec(5, 2, [2, 0, 1]),
    FieldSpec(5, 2, [1, 1, 1]),  # x has order 3, and an element of order 8 meets <x> only in 1
    FieldSpec(3, 3, [1, 2, 0, 1]),
    FieldSpec(7, 2, [1, 0, 1]),
]


def ref_mul(spec, a, b):
    h, mod = spec.h, spec.modulus
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * h - 2, h - 1, -1):
        c = prod[k]
        for j in range(h + 1):
            prod[k - h + j] -= c * mod[j]
    return tuple(c % spec.p for c in prod[:h])


def ref_add(spec, a, b, sign=1):
    return tuple((x + sign * y) % spec.p for x, y in zip(a, b))


class Reference:
    """Every element's powers, inverse and p-th root by repeated coordinate products."""

    def __init__(self, spec):
        self.spec = spec
        self.coords = list(itertools.product(range(spec.p), repeat=spec.h))
        one = (1,) + (0,) * (spec.h - 1)
        self.powers = {}
        for a in self.coords:
            seq = [one]
            for _ in range(spec.q + 1):
                seq.append(ref_mul(spec, seq[-1], a))
            self.powers[a] = seq
        self.inverse = {a: b for a in self.coords for b in self.coords if ref_mul(spec, a, b) == one}
        self.root = {self.powers[r][spec.p]: r for r in self.coords}

    def pow(self, a, k):
        return self.powers[a][k] if k >= 0 else self.powers[self.inverse[a]][-k]


@pytest.mark.parametrize("spec", TABLE_FIELDS, ids=lambda s: f"F{s.q}-{''.join(map(str, s.modulus))}")
def test_tables_match_coordinate_arithmetic(spec):
    ref = Reference(spec)
    assert spec._tab is not None
    elems = {a: spec.element(list(a)) for a in ref.coords}
    for a, x in elems.items():
        assert (-x).coeffs == ref_add(spec, (0,) * spec.h, a, -1)
        assert x.pth_root().coeffs == ref.root[a]
        if a in ref.inverse:
            assert x.inverse().coeffs == ref.inverse[a]
        else:
            with pytest.raises(DivisionByZero):
                x.inverse()
        for k in range(-3, spec.q + 2):
            if k < 0 and a not in ref.inverse:
                with pytest.raises(DivisionByZero):
                    x**k
            else:
                assert (x**k).coeffs == ref.pow(a, k), (a, k)
        for b, y in elems.items():
            assert (x * y).coeffs == ref_mul(spec, a, b)
            assert (x + y).coeffs == ref_add(spec, a, b)
            assert (x - y).coeffs == ref_add(spec, a, b, -1)


def test_table_generator_has_full_order():
    for spec in TABLE_FIELDS:
        g = spec.generator().coeffs
        ref = Reference(spec)
        assert len(set(ref.powers[g][: spec.q - 1])) == spec.q - 1
        # the first such element in elements() order, as the search finds it
        for a in ref.coords[1:]:
            if len(set(ref.powers[a][: spec.q - 1])) == spec.q - 1:
                assert a == g
                break


def test_field_beyond_table_size_uses_coordinate_arithmetic(monkeypatch):
    spec = FieldSpec(257, 2, [-3 % 257, 0, 1])  # x^2 - 3; q = 66049 > _TABLE_MAX_Q
    assert spec._tab is None
    calls = Counter()
    mul = ff._coord_mul

    def counting(*args):
        calls["mul"] += 1
        return mul(*args)

    monkeypatch.setattr(ff, "_coord_mul", counting)
    rng = random.Random(7)
    for _ in range(50):
        a, b = ((rng.randrange(257), rng.randrange(257)) for _ in range(2))
        x, y = spec.element(list(a)), spec.element(list(b))
        assert (x * y).coeffs == ref_mul(spec, a, b)
        assert (x + y).coeffs == ref_add(spec, a, b)
        assert (x - y).coeffs == ref_add(spec, a, b, -1)
        if any(a):
            assert (x * x.inverse()).coeffs == (1, 0)
    assert calls["mul"] >= 50
    g = spec.generator()
    assert g ** (spec.q - 1) == spec.one()
    assert all(g ** ((spec.q - 1) // ell) != spec.one() for ell in (2, 3, 43))  # q - 1 = 2^9 * 3 * 43


def ref_pow(spec, a, k):
    out, base = (1,) + (0,) * (spec.h - 1), a
    while k:
        if k & 1:
            out = ref_mul(spec, out, base)
        base, k = ref_mul(spec, base, base), k >> 1
    return out


def test_tables_at_the_size_cutoff():
    # F_256 with x^8 + x^4 + x^3 + x + 1, where x has order 51 and x + 1 generates
    spec = FieldSpec(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1])
    assert spec.q == ff._TABLE_MAX_Q and spec._tab is not None
    one = (1,) + (0,) * 7
    coords = list(itertools.product(range(2), repeat=8))
    elems = {a: spec.element(list(a)) for a in coords}
    full = [a for a in coords[1:] if all(ref_pow(spec, a, 255 // ell) != one for ell in (3, 5, 17))]
    assert spec.generator().coeffs == full[0]
    sample = random.Random(11).sample(coords, 12)
    for a, x in elems.items():
        assert x.pth_root().coeffs == ref_pow(spec, a, 128)
        for k in (2, 3, 127, 255, 256, 257):
            assert (x**k).coeffs == ref_pow(spec, a, k)
        if any(a):
            inv = x.inverse().coeffs
            assert ref_mul(spec, a, inv) == one
            assert (x**-3).coeffs == ref_pow(spec, inv, 3)
        for b in sample:
            y = elems[b]
            assert (x * y).coeffs == ref_mul(spec, a, b)
            assert (x + y).coeffs == (x - y).coeffs == ref_add(spec, a, b)
    # the next field sizes up keep the coordinate arithmetic
    assert FieldSpec(17, 2, [3, 0, 1])._tab is None  # q = 289
    assert FieldSpec(2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])._tab is None  # q = 512


def test_basis_check_multiplies_coordinates_only_to_build_tables(monkeypatch, capsys):
    ff._zech_tables.cache_clear()
    calls = Counter()
    mul = ff._coord_mul

    def counting(p, h, modulus, a, b):
        calls[p**h] += 1
        return mul(p, h, modulus, a, b)

    monkeypatch.setattr(ff, "_coord_mul", counting)
    path = resources.files("towerdiff") / "fixtures" / "hermitian_p3.json"
    assert main(["basis", "--check", "--input", str(path)]) == 0
    capsys.readouterr()
    assert calls.keys() == {9}
    assert all(n <= q - 1 for q, n in calls.items())
