"""The benchmark's own tests: valid generators and a checker that reproduces known genera.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
from fq import GF  # noqa: E402
from towerdiff import cli  # noqa: E402

SEEDS = [0, 7, 12345]


def _validate(doc):
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(["validate"])
    finally:
        sys.stdin = saved
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generated_towers_validate(workload):
    fixtures = gen.fixture_items()
    make = gen.WORKLOADS[workload]
    for seed in SEEDS:
        for k in range(12):
            item = make(seed, k, fixtures)
            # normalize items disguise their planted standard-form step on purpose
            plan = item.plan or check.plan_from_descriptor(item.gf, item.doc)
            code, report = _validate(gen.descriptor(item.gf, plan) if item.plan else item.doc)
            assert code == 0 and report["passed"], (item.label, item.doc, report)


def test_generators_are_deterministic():
    fixtures = gen.fixture_items()
    for workload, make in gen.WORKLOADS.items():
        a = [make(3, k, fixtures).text for k in range(8)]
        b = [make(3, k, fixtures).text for k in range(8)]
        c = [make(4, k, fixtures).text for k in range(8)]
        assert a == b, workload
        assert a != c, workload


def test_rounds_repeat_towers_up_to_the_twist():
    fixtures = gen.fixture_items()
    for workload, make in gen.WORKLOADS.items():
        size = gen.ROUND[workload]
        for k in range(size):
            a, b = make(3, k, fixtures), make(3, k + size, fixtures)
            if a.plan is None:  # a suite fixture, the same in every round
                assert a is b
                continue
            assert a.gf.q == b.gf.q and a.commands == b.commands, (workload, k)
            gf = a.gf
            ratio = gf.mul(gen._nu(workload, 3, k + size, gf.p),
                           gf.inv(gen._nu(workload, 3, k, gf.p)))
            assert gen.twist(gf, a.plan, ratio) == b.plan, (workload, k)
            assert check.genus(gf, a.plan) == check.genus(gf, b.plan)


def test_hd_quantile():
    import run

    assert run.hd_quantile([7.0], 0.5) == 7.0
    assert abs(run.hd_quantile([1.0, 2.0, 3.0], 0.5) - 2.0) < 1e-9
    assert abs(run.hd_quantile(list(range(1, 21)), 0.5) - 10.5) < 1e-6
    # a gap at the middle: the sample median sits at 10 or 30, this in between
    assert 10.0 < run.hd_quantile([1, 2, 3, 4, 10, 30, 40, 50, 60, 70, 80], 0.5) < 30.0
    tail = run.hd_quantile(list(range(1, 19)), 0.889)
    assert 15.0 < tail < 18.0


def _fixture_genus(name):
    item = next(i for i in gen.fixture_items() if i.label == f"fixture:{name}")
    return check.genus(item.gf, check.plan_from_descriptor(item.gf, item.doc))


def test_checker_reproduces_fixture_genera():
    expected = {
        "artin_mumford_p3": 4,
        "hermitian_p3": 3,
        "fermat_n3_f7": 1,
        "elliptic_f5": 1,
        "as_genus2_f3": 2,
        "mixed_tower_f3": 2,
    }
    assert {name: _fixture_genus(name) for name in expected} == expected


@pytest.mark.parametrize(
    "p, orders, g",
    [(5, (1, 1), 16), (3, (1, 1, 1), 28), (5, (1, 1, 1), 176), (7, (1, 1, 1), 540),
     (7, (2, 2, 2), 981)],
)
def test_elementary_abelian_genus_two_ways(p, orders, g):
    gf = GF(p)
    plan = [{"kind": "artin_schreier", "places": [(b, m, 1)]} for b, m in enumerate(orders)]
    assert check.genus(gf, plan) == g
    assert check.genus_as_subfields(gf, plan) == g


def test_closed_forms():
    gf = GF(101)
    f = [1, 2, 0, 5, 0, 0, 1]  # any squarefree sextic
    assert check.genus(gf, [{"kind": "kummer", "n": 2, "poly": f}]) == (2 - 1) * (6 - 2) // 2
    gf = GF(7)
    step = {"kind": "artin_schreier", "places": [(0, 3, 1), (1, 2, 1)]}
    assert check.genus(gf, [step]) == (7 - 1) * (-2 + 4 + 3) // 2


def test_checker_flags_wrong_outputs():
    fixtures = gen.fixture_items()
    items = (gen.galois_item(1, k, fixtures) for k in range(100))
    item = next(i for i in items if len(i.plan) == 2 and i.plan[1]["kind"] == "artin_schreier"
                and i.plan[0]["kind"] == "artin_schreier")  # group (Z/p)^2
    ref = check.Reference(item.gf, item.plan, "t")
    assert not ref.cyclic
    refused = '{"detail":"x","error":"unsupported_action"}\n'
    wrong = json.dumps({"genus": ref.genus, "nilpotency": True, "t_unr": 0, "modules": [
        {"dim": ref.genus, "mu_p": ref.genus, "mu_tame": [], "multiplicity": 1}]})
    assert check.check_item(ref, item, [(["decompose"], 1, refused, None)]) == []
    assert check.check_item(ref, item, [(["decompose"], 0, wrong, None)])
    assert check.check_item(ref, item, [(["decompose"], 2, refused, None)])
    wrong_genus = json.dumps({"genus": ref.genus + 1, "stepwise": ref.stepwise})
    assert check.check_item(ref, item, [(["genus"], 0, wrong_genus, None)])
    right_genus = json.dumps({"genus": ref.genus, "stepwise": ref.stepwise})
    assert check.check_item(ref, item, [(["genus"], 0, right_genus, None)]) == []
    assert check.check_item(ref, item, [(["genus"], 0, "not json", None)])


def test_checker_rejects_unnormalized_standard_form():
    fixtures = gen.fixture_items()
    items = (gen.normalize_item(1, k, fixtures) for k in range(100))
    item = next(i for i in items if i.plan[0]["kind"] == "artin_schreier")
    ref = check.Reference(item.gf, item.plan, "t")
    raw = item.doc["steps"][0]["c"]
    echo = json.dumps({"chain": [], "step": {"kind": "artin_schreier",
                                              "c": [{"exps": [], **raw}]}})
    problems = check.check_item(ref, item, [(["standardform"], 0, echo, None)])
    assert problems == ["Artin-Schreier output has a pole order divisible by p"]
