"""Tower validation checks, ramification profiles, and the genus formula."""

import json
from collections import Counter
from importlib import resources

import pytest

from towerdiff import tower
from towerdiff.cli import main
from towerdiff.errors import ParseError, ValidationFailed, ZeroArgument
from towerdiff.ff import FieldSpec
from towerdiff.places import Place
from towerdiff.poly import Poly, RatFun
from towerdiff.tower import (
    StepSpec,
    TowerDescriptor,
    analyze,
    candidate_places,
    genus,
    genus_stepwise,
    tracked_place,
    validate,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)


def check_names(report):
    return {c.name for c in report.failed_checks()}


def test_step_spec_guards():
    x = Poly.x(F3)
    with pytest.raises(ParseError):
        StepSpec("kummer", x, 3)  # n shares a factor with p
    with pytest.raises(ZeroArgument):
        StepSpec("artin_schreier", RatFun.zero(F3))
    with pytest.raises(ParseError):
        StepSpec("frobenius", x)


def test_validate_roots_of_unity():
    x = Poly.x(F3)
    one = Poly.one(F3)
    d = TowerDescriptor(F3, [StepSpec("kummer", x * (x - one), 4)])
    assert "roots_of_unity" in check_names(validate(d))


def test_validate_as_standard_form():
    x = Poly.x(F3)
    one = Poly.one(F3)
    d = TowerDescriptor(F3, [StepSpec("artin_schreier", RatFun(one, x**3))])
    assert "artin_schreier_standard_form" in check_names(validate(d))


def test_validate_kummer_range():
    x = Poly.x(F5)
    one = Poly.one(F5)
    d = TowerDescriptor(F5, [StepSpec("kummer", x**3 * (x - one), 2)])
    assert "kummer_standard_form" in check_names(validate(d))


def test_validate_primitivity():
    x = Poly.x(F5)
    one = Poly.one(F5)
    d = TowerDescriptor(F5, [StepSpec("kummer", (x * (x - one)) ** 2, 4)])
    assert "kummer_primitive" in check_names(validate(d))


def test_validate_infinity_unramified():
    x = Poly.x(F5)
    d = TowerDescriptor(F5, [StepSpec("kummer", x, 2)])
    assert "infinity_unramified" in check_names(validate(d))


def test_validate_geometric_as():
    # constant defining element: no place ramifies
    d = TowerDescriptor(F3, [StepSpec("artin_schreier", RatFun.constant(F3, 1))])
    assert "artin_schreier_geometric" in check_names(validate(d))


def test_profile_mixed_tower(fixtures):
    d = fixtures["mixed_tower_f3"]
    profile = analyze(d)
    x = Poly.x(F3)
    one = Poly.one(F3)
    by_place = {P: tp for P, tp in profile.items()}
    tame = by_place[Place.finite(x)]
    assert tame.e_total == 2 and tame.different_exponent == 1
    wild = by_place[Place.finite(x - one - one)]
    assert wild.e_total == 3 and wild.different_exponent == 4
    assert Place.infinite(F3) not in by_place


def test_tracked_place_unramified():
    x = Poly.x(F5)
    one = Poly.one(F5)
    d = TowerDescriptor(F5, [StepSpec("kummer", x * (x - one), 2)])
    tp = tracked_place(d, Place.finite(x - one - one))
    assert tp.e_total == 1


def test_analyze_rejects_invalid():
    x = Poly.x(F3)
    one = Poly.one(F3)
    d = TowerDescriptor(F3, [StepSpec("artin_schreier", RatFun(one, x**3))])
    with pytest.raises(ValidationFailed):
        analyze(d)


def test_genus_fixtures(fixtures):
    expected = {
        "artin_mumford_p3": 4,
        "as_genus2_f3": 2,
        "elliptic_f5": 1,
        "fermat_n3_f7": 1,
        "hermitian_p3": 3,
        "mixed_tower_f3": 2,
    }
    for name, g in expected.items():
        assert genus(fixtures[name]) == g, name


def test_genus_stepwise(fixtures):
    assert genus_stepwise(fixtures["mixed_tower_f3"]) == [0, 2]
    assert genus_stepwise(fixtures["as_genus2_f3"]) == [2]


def test_genus_matches_degree_one_riemann_hurwitz():
    # hyperelliptic y^2 = f, deg f = 6 squarefree over F_7: g = 2
    F7 = FieldSpec(7)
    x = Poly.x(F7)
    f = Poly.one(F7)
    for a in range(6):
        f = f * (x - Poly.constant(F7, a))
    d = TowerDescriptor(F7, [StepSpec("kummer", f, 2)])
    assert genus(d) == 2


def test_genus_stepwise_matches_reanalysis_of_truncations(fixtures, suite):
    # genus_stepwise reads truncations off one walk of the full tower; the
    # oracle analyzes each truncated tower from scratch
    towers = list(fixtures.values()) + [d for d in suite if d.r >= 2]
    for d in towers:
        assert genus_stepwise(d) == [genus(d.truncate(i)) for i in range(1, d.r + 1)], d


def _count_walks(monkeypatch):
    counts = Counter()
    walk = tower._walk_place

    def counting(d, P):
        counts[P] += 1
        return walk(d, P)

    monkeypatch.setattr(tower, "_walk_place", counting)
    return counts


def test_analyze_walks_each_candidate_place_once(fixtures, monkeypatch):
    counts = _count_walks(monkeypatch)
    for name, d in fixtures.items():
        counts.clear()
        analyze(d)
        assert counts == Counter(candidate_places(d)), name


def test_basis_check_walks_infinity_once_for_the_oracle(monkeypatch, capsys):
    # once inside analyze, once for the oracle's map; not once per element
    counts = _count_walks(monkeypatch)
    path = resources.files("towerdiff") / "fixtures" / "artin_mumford_p3.json"
    assert main(["basis", "--check", "--input", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    assert counts[Place.infinite(F3)] == 2
