"""Golden CLI outputs: exit code and stdout of every subcommand on every fixture.

The expected bytes live in tests/golden/cli_outputs.json. To rewrite them after
an intended output change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from conftest import FIXTURE_NAMES, load_fixture
from towerdiff.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"


def cases():
    """(fixture name, argv without --input) for every subcommand and generator."""
    out = []
    for name in FIXTURE_NAMES:
        r = load_fixture(name).r
        for argv in (["validate"], ["analyze"], ["genus"], ["basis", "--check"],
                     ["decompose"], ["standardform"]):
            out.append((name, argv))
        for i in range(r):
            h = ",".join("1" if j == i else "0" for j in range(r))
            out.append((name, ["act", "--element", h]))
    return out


def run_case(name, argv):
    path = str(resources.files("towerdiff") / "fixtures" / f"{name}.json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--input", path])
    return {"fixture": name, "argv": argv, "exit": code, "stdout": buf.getvalue()}


def test_golden_file_covers_every_case():
    recorded = [(rec["fixture"], rec["argv"]) for rec in json.loads(GOLDEN.read_text())]
    assert recorded == cases()


@pytest.mark.parametrize("index", range(len(cases())))
def test_golden_cli_output(index):
    expected = json.loads(GOLDEN.read_text())[index]
    got = run_case(expected["fixture"], expected["argv"])
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]


if __name__ == "__main__":
    records = [run_case(name, argv) for name, argv in cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
