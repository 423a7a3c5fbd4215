"""CLI and serialization: round-trips, exit codes, determinism."""

import json
import time
from importlib import resources

import pytest

from towerdiff import jsonio
from towerdiff.cli import main
from towerdiff.errors import UnsupportedAction
from towerdiff.ff import FieldSpec
from towerdiff.galois import cyclic_decomposition

F3 = FieldSpec(3)


def fixture_path(name):
    return str(resources.files("towerdiff") / "fixtures" / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_descriptor_round_trip(fixtures):
    for name, d in fixtures.items():
        doc = jsonio.descriptor_to_json(d)
        again = jsonio.descriptor_from_json(json.loads(json.dumps(doc)))
        assert jsonio.descriptor_to_json(again) == doc, name


def test_element_serialization_prime_vs_extension():
    F9 = FieldSpec(3, 2, [1, 0, 1])
    assert jsonio.element_to_json(F3.element(2)) == 2
    assert jsonio.element_to_json(F9.element([1, 2])) == [1, 2]
    assert jsonio.place_to_json(jsonio.place_from_json(F3, "infinity")) == "infinity"


def test_cli_genus(capsys):
    code, out = run(capsys, "genus", "--input", fixture_path("artin_mumford_p3"))
    assert code == 0
    assert json.loads(out) == {"genus": 4, "stepwise": [4]}


def test_cli_basis_check(capsys):
    code, out = run(capsys, "basis", "--check", "--input", fixture_path("mixed_tower_f3"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 2
    assert all(rec["check"] for rec in doc)


def test_cli_validate_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": {"p": 5, "h": 1},
                "steps": [{"kind": "kummer", "n": 4, "c": [0, 0, 1, 3, 1]}],
            }
        )
    )
    code, out = run(capsys, "validate", "--input", str(bad))
    assert code == 1
    doc = json.loads(out)
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["kummer_primitive"]


def test_cli_parse_error(capsys, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{nope")
    code, out = run(capsys, "genus", "--input", str(f))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "parse_error"
    assert "line" in doc["detail"]


def test_cli_decompose(capsys):
    code, out = run(capsys, "decompose", "--input", fixture_path("as_genus2_f3"))
    assert code == 0
    doc = json.loads(out)
    assert doc["modules"] == [
        {"dim": 2, "mu_p": 2, "mu_tame": [], "multiplicity": 1}
    ]
    assert doc["nilpotency"] is True


def test_cli_decompose_refuses_elementary_abelian_group(capsys, tmp_path):
    # y1^5 - y1 = 1/x, y2^5 - y2 = 1/(x - 1) over F_5: the group is (Z/5)^2
    desc = {
        "field": {"p": 5, "h": 1},
        "steps": [
            {"kind": "artin_schreier", "c": {"num": [1], "den": [0, 1]}},
            {"kind": "artin_schreier", "c": {"num": [1], "den": [4, 1]}},
        ],
    }
    with pytest.raises(UnsupportedAction):
        cyclic_decomposition(jsonio.descriptor_from_json(desc))
    path = tmp_path / "z5_squared.json"
    path.write_text(json.dumps(desc))
    code, out = run(capsys, "validate", "--input", str(path))
    assert code == 0
    code, out = run(capsys, "decompose", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "unsupported_action"


def test_cli_act(capsys):
    code, out = run(capsys, "act", "--element", "1", "--input", fixture_path("as_genus2_f3"))
    assert code == 0
    assert json.loads(out) == {"matrix": [[1, 1], [0, 1]]}


def test_cli_standardform(capsys, tmp_path):
    f = tmp_path / "sf.json"
    f.write_text(
        json.dumps(
            {
                "field": {"p": 3, "h": 1},
                "steps": [
                    {"kind": "artin_schreier", "c": {"num": [1, 0, 1], "den": [0, 0, 0, 1]}}
                ],
            }
        )
    )
    code, out = run(capsys, "standardform", "--input", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["chain"] == [{"kind": "shift", "w": {"den": [0, 1], "num": [1]}}]
    assert doc["step"]["c"] == [{"den": [0, 1], "exps": [], "num": [2]}]


def test_cli_deterministic_output(capsys):
    _, first = run(capsys, "basis", "--input", fixture_path("hermitian_p3"))
    _, second = run(capsys, "basis", "--input", fixture_path("hermitian_p3"))
    assert first == second


def test_cli_emitted_basis_reparses(capsys, fixtures):
    code, out = run(capsys, "basis", "--input", fixture_path("mixed_tower_f3"))
    assert code == 0
    d = fixtures["mixed_tower_f3"]
    basis = jsonio.basis_from_json(d.field, json.loads(out))
    assert jsonio.basis_to_json(basis) == json.loads(out)


@pytest.mark.parametrize("command", ["analyze", "genus", "basis"])
def test_cli_invalid_tower_is_a_validation_failure(capsys, tmp_path, command):
    # y^2 = x^2 is not primitive: bad input (exit 1), not an internal fault (exit 2)
    f = tmp_path / "square.json"
    f.write_text(json.dumps({"field": {"p": 5}, "steps": [{"kind": "kummer", "n": 2, "c": [0, 0, 1]}]}))
    code, out = run(capsys, command, "--input", str(f))
    assert code == 1
    assert json.loads(out)["error"] == "validation_failed"


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--seed", "3"],
        ["basis", "--assume-uniform"],
        ["genus", "--bogus"],
        ["act"],
    ],
)
def test_cli_usage_error_is_a_parse_error(capsys, argv):
    code, out = run(capsys, *argv, "--input", fixture_path("artin_mumford_p3"))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, step",
    [
        ({"p": "3"}, {"kind": "kummer", "n": 2, "c": [0, 1]}),
        ({"p": 5}, {"kind": "kummer", "n": "2", "c": [0, 1]}),
        ({"p": 5}, {"kind": "kummer", "n": 2, "c": [0.5, 1]}),
        ({"p": 5}, {"kind": "kummer", "n": 2, "c": [None]}),
        ({"p": 5}, {"kind": "kummer", "n": 2, "c": [{"exps": "a", "num": [0, 1]}]}),
    ],
)
def test_cli_type_confused_descriptor_is_a_parse_error(capsys, tmp_path, field, step):
    f = tmp_path / "typed.json"
    f.write_text(json.dumps({"field": field, "steps": [step]}))
    code, out = run(capsys, "validate", "--input", str(f))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


@pytest.mark.parametrize("command", ["validate", "genus"])
def test_cli_large_characteristic_answers_quickly(capsys, tmp_path, command):
    f = tmp_path / "large_p.json"
    f.write_text(json.dumps({"field": {"p": 1000000000000000003},
                             "steps": [{"kind": "kummer", "n": 2, "c": [1, 0, 1]}]}))
    t0 = time.perf_counter()
    code, _ = run(capsys, command, "--input", str(f))
    assert code == 0
    assert time.perf_counter() - t0 < 2.0


def test_cli_characteristic_beyond_primality_bound_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "huge_p.json"
    f.write_text(json.dumps({"field": {"p": 3317044064679887385961981 + 2},
                             "steps": [{"kind": "kummer", "n": 2, "c": [1, 0, 1]}]}))
    code, out = run(capsys, "genus", "--input", str(f))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_cli_act_over_a_safe_prime_answers_quickly(capsys, tmp_path):
    # q - 1 = 2 * 500000000000003621: its prime factors need Pollard-Brent, not trial division
    f = tmp_path / "safe_p.json"
    f.write_text(json.dumps({"field": {"p": 1000000000000007243},
                             "steps": [{"kind": "kummer", "n": 2, "c": [0, 1, 0, 0, 1]}]}))
    t0 = time.perf_counter()
    code, out = run(capsys, "act", "--element", "1", "--input", str(f))
    assert code == 0
    assert json.loads(out) == {"matrix": [[1000000000000007242]]}
    assert time.perf_counter() - t0 < 2.0


def cubic_tower(tmp_path, p):
    f = tmp_path / "cubic.json"
    f.write_text(json.dumps({"field": {"p": p, "h": 3, "modulus": [1, 1, 0, 1]},
                             "steps": [{"kind": "kummer", "n": 2,
                                        "c": [[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0]]}]}))
    return f


def test_cli_group_order_with_a_composite_factor_beyond_the_bound(capsys, tmp_path):
    # q - 1 = Phi_1(p) * Phi_3(p), and Phi_3(p) = 4513 * 4657 * 4758043723368575053 exceeds the bound
    t0 = time.perf_counter()
    code, out = run(capsys, "act", "--element", "1", "--input", str(cubic_tower(tmp_path, 10000000000691)))
    assert code == 0
    assert json.loads(out) == {"matrix": [[[10000000000690, 0, 0]]]}
    assert time.perf_counter() - t0 < 2.0


def test_cli_group_order_beyond_primality_bound_is_a_parse_error(capsys, tmp_path):
    # Phi_3(p) exceeds the bound and passes every Miller-Rabin base
    code, out = run(capsys, "act", "--element", "1", "--input", str(cubic_tower(tmp_path, 10000000001573)))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_cli_act_refuses_a_genus_above_the_cap(capsys, tmp_path):
    # y^p - y = 1/x^2 over F_10007 has g = 5003, above MAX_ACTION_GENUS = 3000
    f = tmp_path / "large_genus.json"
    f.write_text(json.dumps({"field": {"p": 10007},
                             "steps": [{"kind": "artin_schreier",
                                        "c": {"num": [1], "den": [0, 0, 1]}}]}))
    t0 = time.perf_counter()
    code, out = run(capsys, "act", "--element", "1", "--input", str(f))
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "unsupported_action"
    assert "5003" in doc["detail"] and "3000" in doc["detail"]


def test_cli_act_checks_the_element_on_a_genus_zero_tower(capsys, tmp_path):
    # y^5 - y = 1/x has genus 0, so there is no basis to act on, but the element is still checked
    f = tmp_path / "genus0.json"
    f.write_text(json.dumps({"field": {"p": 5},
                             "steps": [{"kind": "artin_schreier", "c": {"num": [1], "den": [0, 1]}}]}))
    code, out = run(capsys, "act", "--element", "1", "--input", str(f))
    assert (code, json.loads(out)) == (0, {"matrix": []})
    code, out = run(capsys, "act", "--element", "1,2,3", "--input", str(f))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"
