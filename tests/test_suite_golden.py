"""Golden digests: CLI output of the 200-tower random suite and a few stress towers.

For every tower of `random_towers(200)` and every stress descriptor below, the
sha256 of exit code and stdout of `validate`, `analyze`, `genus` and
`basis --check` is pinned in tests/golden/suite_digests.json. For the towers
among them of genus at most GALOIS_MAX_GENUS, the digests of `act` on every
generator and of `decompose` are pinned in tests/golden/galois_digests.json.
Digests keep the files small; a mismatch names the tower and subcommand, and
the full output is recomputed with `towerdiff <subcommand> --input <file>`. To
rewrite both files after an intended output change, run
`PYTHONPATH=src:tests python tests/test_suite_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from towerdiff import jsonio
from towerdiff.cli import main
from towerdiff.errors import TowerDiffError
from towerdiff.tower import genus

GOLDEN = Path(__file__).parent / "golden" / "suite_digests.json"
GALOIS_GOLDEN = Path(__file__).parent / "golden" / "galois_digests.json"
GALOIS_MAX_GENUS = 60

SUBCOMMANDS = (["validate"], ["analyze"], ["genus"], ["basis", "--check"])

F49 = {"p": 7, "h": 2, "modulus": [1, 0, 1]}

STRESS = {
    # y^3 = x^3 + i x^2 + x over F_49, i^2 = -1
    "f49_kummer_n3": {"field": F49, "steps": [
        {"kind": "kummer", "n": 3, "c": [[0, 0], [1, 0], [0, 1], [1, 0]]}]},
    # y1^2 = x^4 + i x + 1, then y2^7 - y2 = (x + i + 1)/(x + 3) over F_49 (genus 13)
    "f49_kummer_then_as": {"field": F49, "steps": [
        {"kind": "kummer", "n": 2, "c": [[1, 0], [0, 1], [0, 0], [0, 0], [1, 0]]},
        {"kind": "artin_schreier", "c": {"num": [[1, 1]], "den": [[3, 0], [1, 0]]}}]},
    # degree 7 is not divisible by n = 8, so infinity ramifies: exit 1
    "f49_kummer_ramified_at_infinity": {"field": F49, "steps": [
        {"kind": "kummer", "n": 8, "c": [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0],
                                         [0, 0], [3, 2]]}]},
    # y^2 = x^6 + x + 1 over F_1000003 (genus 2)
    "f1000003_hyperelliptic": {"field": {"p": 1000003}, "steps": [
        {"kind": "kummer", "n": 2, "c": [1, 1, 0, 0, 0, 0, 1]}]},
    # y^3 = x^3 + 7x^2 + 5 over F_1000003 (genus 1)
    "f1000003_kummer_n3": {"field": {"p": 1000003}, "steps": [
        {"kind": "kummer", "n": 3, "c": [5, 0, 7, 1]}]},
    # y_i^3 - y_i = 1/(x - a_i), a = 0, 1, 2 over F_3 (genus 28)
    "f3_as_three_steps": {"field": {"p": 3}, "steps": [
        {"kind": "artin_schreier", "c": {"num": [1], "den": den}}
        for den in ([0, 1], [2, 1], [1, 1])]},
    # the same plus y_4^3 - y_4 = 1/(x^2 + 1) (genus 190)
    "f3_as_four_steps": {"field": {"p": 3}, "steps": [
        {"kind": "artin_schreier", "c": {"num": [1], "den": den}}
        for den in ([0, 1], [2, 1], [1, 1], [1, 0, 1])]},
}


def descriptors(suite):
    """(name, descriptor JSON text) for every suite tower, then every stress tower."""
    out = [(f"suite_{i:03d}", json.dumps(jsonio.descriptor_to_json(d)))
           for i, d in enumerate(suite)]
    out += [(name, json.dumps(doc)) for name, doc in STRESS.items()]
    return out


def digest(text, argv):
    """sha256 of the exit code and stdout of one CLI run on descriptor text."""
    buf = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv + ["--input", "-"])
    finally:
        sys.stdin = stdin
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


def compute(suite):
    return {name: {" ".join(argv): digest(text, argv) for argv in SUBCOMMANDS}
            for name, text in descriptors(suite)}


def galois_commands(text):
    """`act` on each generator, then `decompose`, for one descriptor."""
    r = len(json.loads(text)["steps"])
    elements = [",".join("1" if j == i else "0" for j in range(r)) for i in range(r)]
    return [["act", "--element", e] for e in elements] + [["decompose"]]


def compute_galois(named_texts):
    return {name: {" ".join(argv): digest(text, argv) for argv in galois_commands(text)}
            for name, text in named_texts}


def galois_towers(suite):
    """(name, text) of the towers with a genus of at most GALOIS_MAX_GENUS."""
    out = []
    for name, text in descriptors(suite):
        try:
            g = genus(jsonio.descriptor_from_json(json.loads(text)))
        except TowerDiffError:
            continue
        if g <= GALOIS_MAX_GENUS:
            out.append((name, text))
    return out


def check_digests(expected, got):
    assert list(got) == list(expected)
    wrong = [(name, cmd) for name, cmds in expected.items()
             for cmd, h in cmds.items() if got[name].get(cmd) != h]
    assert not wrong, f"{len(wrong)} outputs changed, first: {wrong[:5]}"


def test_suite_digests_unchanged(suite):
    check_digests(json.loads(GOLDEN.read_text()), compute(suite))


def test_galois_digests_unchanged(suite):
    # the golden names the towers of genus <= GALOIS_MAX_GENUS; their genus
    # outputs are pinned above, so the selection is not recomputed here
    expected = json.loads(GALOIS_GOLDEN.read_text())
    texts = dict(descriptors(suite))
    check_digests(expected, compute_galois((name, texts[name]) for name in expected))


if __name__ == "__main__":
    from conftest import random_towers

    suite = random_towers(200)
    records = compute(suite)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} towers x {len(SUBCOMMANDS)} subcommands to {GOLDEN}")
    galois = compute_galois(galois_towers(suite))
    GALOIS_GOLDEN.write_text(json.dumps(galois, indent=1) + "\n")
    print(f"wrote act and decompose on {len(galois)} towers to {GALOIS_GOLDEN}")
