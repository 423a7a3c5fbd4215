"""JSON boundary: mutated fixture descriptors get an answer or a structured error."""

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from towerdiff.cli import main

from conftest import FIXTURE_NAMES

FIXTURE_DOCS = [
    json.loads((resources.files("towerdiff") / "fixtures" / f"{name}.json").read_text())
    for name in FIXTURE_NAMES
]

COMMANDS = [
    ["validate"],
    ["analyze"],
    ["genus"],
    ["basis", "--check"],
    ["decompose"],
    ["standardform"],
]

# small integers keep each mutated field small, so every analysis stays cheap
SCALARS = st.one_of(
    st.integers(-3, 50),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=4,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def mutated_descriptors(draw):
    """A fixture descriptor with one to three values swapped out or keys dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return doc


def _run(argv, text):
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(doc=mutated_descriptors(), argv=st.sampled_from(COMMANDS))
def test_mutated_descriptor_gets_one_json_document(doc, argv):
    code, out = _run(argv, json.dumps(doc))
    assert code in (0, 1), (argv, doc, out)
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)
