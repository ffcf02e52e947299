"""In-process fuzzing of the command line: whatever the input file holds,
every verb that reads one ends with exit code 0, 1 or 2 and a JSON report
on stdout, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ordbubble.cli import VERBS, main

FILE_VERBS = tuple(verb for verb in VERBS if verb != "sweep")
FORMATS = ("auto", "relation_json", "matrix", "bubble_json")

labels = st.sampled_from(("a", "b", "c", "d", "e", ""))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | labels,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(labels, inner, max_size=3),
    max_leaves=8,
)
pairs = st.lists(st.tuples(labels, labels).map(list), max_size=12) | st.lists(
    st.lists(labels, max_size=3) | json_values, max_size=4
)
elements = st.lists(labels, min_size=1, max_size=6, unique=True) | json_values
relation_payloads = st.fixed_dictionaries({"elements": elements, "pairs": pairs})


@st.composite
def closed_payloads(draw):
    """A preorder, or a partial order when every pair points forward in
    carrier order: reflexive, with the transitive closure of drawn pairs."""
    elems = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    n = len(elems)
    forward = draw(st.booleans())
    cells = [(i, j) for i in range(n) for j in range(n) if i < j or not forward]
    drawn = draw(st.lists(st.sampled_from(cells), max_size=8)) if cells else []
    rel = {(i, i) for i in range(n)} | set(drawn)
    for k in range(n):
        rel |= {(i, j) for i, m in rel if m == k for l, j in rel if l == k}
    return {"elements": elems, "pairs": sorted([elems[i], elems[j]] for i, j in rel)}


@st.composite
def system_payloads(draw):
    """A well-formed bubble system: consecutive runs of the drawn labels,
    each bubble discrete or a single class."""
    elems = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(elems) - 1))) if len(elems) > 1 else ())
    bubbles = []
    for b, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(elems)])):
        block = elems[lo:hi]
        whole = draw(st.booleans())
        inner = [[x, y] for x in block for y in block if whole or x == y]
        bubbles.append({"label": f"B{b}", "elements": block, "inner_pairs": inner})
    return {"index": [bubble["label"] for bubble in bubbles], "bubbles": bubbles}


bubble_names = st.sampled_from(("B0", "B1", "B2"))
bubble_payloads = st.fixed_dictionaries(
    {
        "index": st.lists(bubble_names, max_size=3, unique=True) | json_values,
        "bubbles": st.lists(
            st.fixed_dictionaries(
                {
                    "label": bubble_names | json_values,
                    "elements": st.lists(labels, max_size=3, unique=True) | json_values,
                    "inner_pairs": pairs,
                }
            ),
            max_size=3,
        )
        | json_values,
    }
)
matrix_texts = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.text("01", min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: "\n".join([str(n), *rows])
    )
)
contents = (
    st.binary(max_size=200)
    | matrix_texts.map(str.encode)
    | relation_payloads.map(lambda p: json.dumps(p).encode())
    | closed_payloads().map(lambda p: json.dumps(p).encode())
    | bubble_payloads.map(lambda p: json.dumps(p).encode())
    | system_payloads().map(lambda p: json.dumps(p).encode())
)


@settings(max_examples=300, deadline=None)
@given(verb=st.sampled_from(FILE_VERBS), fmt=st.sampled_from(FORMATS), content=contents)
def test_cli_always_reports_json(verb, fmt, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([verb, "--in", str(path), "--format", fmt])
    assert code in (0, 1, 2)
    json.loads(stdout.getvalue())
