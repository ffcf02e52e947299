import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys

import pytest

import oracles
from ordbubble import Carrier, Relation, cli, connectivity_report, enumerate_preorders, gaps, interval_topology
from ordbubble.cli import main, parse_input
from ordbubble.relations import relation_from_json_dict
from ordbubble.structure import Loset


TWO_BUBBLE = {
    "elements": ["x1", "x2", "y"],
    "pairs": [["x1", "x1"], ["x2", "x2"], ["y", "y"], ["x1", "y"], ["x2", "y"]],
}

NOT_DECOMPOSABLE = {
    "elements": ["a", "b", "c"],
    "pairs": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"]],
}


@pytest.fixture
def two_bubble_file(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(TWO_BUBBLE))
    return str(path)


def run_cli(args, tmp_path):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_analyze_reports_decomposability(two_bubble_file, tmp_path):
    code, report = run_cli(["analyze", "--in", two_bubble_file], tmp_path)
    assert code == 0
    strict = report["result"]["derived"]["asymmetric_part"]
    assert strict["properties"]["flags"]["negatively_transitive"] is True
    assert report["result"]["properties"]["flags"]["reflexive"] is True
    assert all(item["holds"] for item in report["invariants"])


def test_decompose_and_bubble_round_trip(two_bubble_file, tmp_path):
    code, report = run_cli(["decompose", "--in", two_bubble_file], tmp_path)
    assert code == 0
    assert report["result"]["mode"] == "bubbles"
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(report["result"]["system"]))
    code, bubbled = run_cli(["bubble", "--in", str(system_path)], tmp_path)
    assert code == 0
    rebuilt = bubbled["result"]["relation"]
    assert sorted(map(tuple, rebuilt["pairs"])) == sorted(map(tuple, TWO_BUBBLE["pairs"]))


def test_decompose_falls_back_to_linear_factor(tmp_path):
    path = tmp_path / "nd.json"
    path.write_text(json.dumps(NOT_DECOMPOSABLE))
    code, report = run_cli(["decompose", "--in", str(path)], tmp_path)
    assert code == 0
    assert report["result"]["mode"] == "bourbaki"
    assert report["result"]["refusal_witness"] == ["a", "c", "b"]
    assert report["result"]["partition"] == {"blocks": [["a", "b", "c"]]}


def test_extend_verb(two_bubble_file, tmp_path):
    code, report = run_cli(["extend", "--in", two_bubble_file], tmp_path)
    assert code == 0
    assert report["result"]["order"] == ["x1", "x2", "y"]


def test_utility_verb(two_bubble_file, tmp_path):
    code, report = run_cli(["utility", "--in", two_bubble_file], tmp_path)
    assert code == 0
    assert report["result"]["values"] == {"x1": "0", "x2": "0", "y": "1"}
    assert report["result"]["interval"] == "[0,1]"
    assert report["result"]["continuous"] is True


def test_topology_verb(two_bubble_file, tmp_path):
    code, report = run_cli(["topology", "--in", two_bubble_file], tmp_path)
    assert code == 0
    assert report["result"]["opens"] == [[], ["y"], ["x1", "x2"], ["x1", "x2", "y"]]
    assert report["result"]["connected"] is False
    assert report["result"]["gaps"] == [["x1", "y"], ["x2", "y"]]


def test_matrix_format_input(tmp_path):
    path = tmp_path / "rel.txt"
    path.write_text("2\n11\n01\n")
    code, report = run_cli(["analyze", "--in", str(path)], tmp_path)
    assert code == 0
    assert report["result"]["properties"]["flags"]["complete"] is True


def test_parse_input_autodetects(tmp_path):
    rel = tmp_path / "r.json"
    rel.write_text(json.dumps(TWO_BUBBLE))
    loaded = parse_input(str(rel))
    assert loaded.carrier.elements == ("x1", "x2", "y")
    matrix = tmp_path / "m.txt"
    matrix.write_text("1\n1\n")
    assert parse_input(str(matrix)).carrier.elements == ("e0",)


def test_parse_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n01\n0\n")
    code, report = run_cli(["analyze", "--in", str(bad)], tmp_path)
    assert code == 1
    assert "ragged" in report["error"]
    missing = tmp_path / "missing.json"
    code, report = run_cli(["analyze", "--in", str(missing)], tmp_path)
    assert code == 1


@pytest.mark.parametrize(
    "verb, content",
    [
        ("analyze", json.dumps({"elements": ["a", "b"], "pairs": [[["a"], "b"]]}).encode()),
        (
            "bubble",
            json.dumps(
                {"index": ["B0"], "bubbles": [{"label": "B0", "elements": ["a"], "inner_pairs": [["a"]]}]}
            ).encode(),
        ),
        ("analyze", b"2\n11\n01\n\xff\n"),
        ("analyze", b"[" * 100_000 + b"]" * 100_000),
        ("analyze", b"9" * 5_000),
    ],
    ids=["unhashable-pair-label", "short-inner-pair", "not-utf8", "deep-nesting", "long-integer"],
)
def test_malformed_input_is_a_parse_error(verb, content, tmp_path):
    path = tmp_path / "bad.in"
    path.write_bytes(content)
    code, report = run_cli([verb, "--in", str(path)], tmp_path)
    assert code == 1
    assert report["kind"] == "ParseError"


def test_bubble_verb_requires_system_input(two_bubble_file, tmp_path):
    code, report = run_cli(["bubble", "--in", two_bubble_file], tmp_path)
    assert code == 1


def test_bad_bubble_json_is_a_validation_error(tmp_path):
    payload = {
        "index": ["B0"],
        "bubbles": [
            {
                "label": "B0",
                "elements": ["a", "b"],
                "inner_pairs": [["a", "a"], ["b", "b"], ["a", "b"]],
            }
        ],
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(payload))
    code, report = run_cli(["bubble", "--in", str(path)], tmp_path)
    assert code == 1
    assert "equivalence" in report["error"]


def test_sweep_small(tmp_path):
    code, report = run_cli(["sweep", "--n", "2"], tmp_path)
    assert code == 0
    assert report["result"]["failures_total"] == 0
    assert report["result"]["preorder_count_filter"] == 4
    assert report["result"]["preorder_count_pairs"] == 4


def test_sweep_three_counts_preorders(tmp_path):
    code, report = run_cli(["sweep", "--n", "3"], tmp_path)
    assert code == 0
    assert report["result"]["failures_total"] == 0
    assert report["result"]["preorder_count_filter"] == 29
    assert report["result"]["preorder_count_pairs"] == 29


def test_sweep_rejects_large_n(tmp_path):
    code, report = run_cli(["sweep", "--n", "5"], tmp_path)
    assert code == 1
    assert "randomized" in report["error"]


def test_sweep_fault_injection_exits_two(tmp_path):
    code, report = run_cli(["sweep", "--n", "2", "--inject-fault", "saturation"], tmp_path)
    assert code == 2
    assert report["result"]["failures_total"] > 0
    code, _ = run_cli(["sweep", "--n", "2", "--inject-fault", "nonsense"], tmp_path)
    assert code == 1


def test_reports_are_byte_identical_across_runs(two_bubble_file, tmp_path):
    for verb in ("analyze", "decompose", "utility", "topology"):
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "ordbubble", verb, "--in", two_bubble_file],
                capture_output=True,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(b"\n")


def test_sweep_deterministic_across_runs():
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "ordbubble", "sweep", "--n", "2"],
            capture_output=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# labels that JSON escapes, that sort apart from carrier order, or that
# spell pieces of the report around the opens listing
HARD_LABELS = (
    "", '"', "\\", "\u00e9", " ", "x10", "x9", 'opens": []',
    "\n", '"]\n  },\n  "verb": "', "\u2028", "\u65e5\u672c",
)


def relabelled(relation, labels):
    """The relation's JSON payload with its carrier's labels replaced, in
    carrier order."""
    rename = dict(zip(relation.carrier.elements, labels))
    return {"elements": list(labels), "pairs": [[rename[x], rename[y]] for x, y in relation.pairs()]}


def hard_relation(n):
    """A seeded bubble relation on n <= 12 of the hard labels, shuffled."""
    rnd = random.Random(n)
    relation = oracles.label_bubble_compose(oracles.shuffled_bubble_system(rnd, n))
    labels = list(HARD_LABELS[:n])
    rnd.shuffle(labels)
    return relabelled(relation, labels)


def chain(n):
    return Loset.chain(tuple(f"x{i}" for i in range(n))).relation().to_json_dict()


# sha256 of the exit code and report bytes on seeded bubble relations past
# the n <= 14 of the benchmark's golden digests; at n = 64 the topology verb
# refuses to list the opens.  The 16-chain (65,536 opens, at the listing
# cap) and the hard-labelled relation were pinned before the listing was
# sorted by int keys and written from masks.
REPORT_DIGESTS = {
    ("utility", 14): "d2878b5d2e57cf0d0d225ac8957bc1f5a6b29841a5a12a22248e80ff7ef8f183",
    ("topology", 14): "4fa21d396e5f1e8f2a604fb8713a5aecf57b6d2cbe46b5104ef989d0ce4d1a13",
    ("utility", 64): "9d4f3bf1d6827988357db8af7844f84eff392ff13885b5fc560148df9588db50",
    ("topology", 64): "639952cc425bba7ec438a3d6ec193d8fe38b09988f2191107f77460e450b7197",
    ("topology", "chain-16"): "4a09242f906d06a09b1104d5c25cbc4d3e22ccd6572d11604a7b108a71840bf5",
    ("topology", "hard-12"): "b50c8c05ab55cd3d8e769a11fecf8fd9fb9fc651a4421effe8a7ab7ee0b3699e",
}


@pytest.mark.parametrize("verb,n", sorted(REPORT_DIGESTS, key=str))
def test_topology_reports_do_not_drift(verb, n, tmp_path):
    if n == "chain-16":
        payload = chain(16)
    elif n == "hard-12":
        payload = hard_relation(12)
    else:
        relation = oracles.label_bubble_compose(oracles.shuffled_bubble_system(random.Random(n), n))
        payload = relation.to_json_dict()
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main([verb, "--in", str(path), "--out", str(out)])
    digest = hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS[verb, n]


# sha256 of the exit code and report bytes where the word-parallel kernels
# run: bubble relations at n = 128 and a sparse partial order at n = 48,
# pinned before those kernels replaced the loops there
KERNEL_PATH_DIGESTS = {
    ("decompose", 128): "31e48864df05eaf0b48f83a4fd8fac478a145260e154413394c456d60caddd90",
    ("utility", 128): "1f52f7aaf7b7b0a336ec2901f6b241a8716f1ba9cc73d4416f73849e86c04663",
    ("extend", 48): "9dc97c568bcb61d27c2a630454a54428d2b9a365c3de176297674171d75b9fff",
}


@pytest.mark.parametrize("verb,n", sorted(KERNEL_PATH_DIGESTS))
def test_kernel_path_reports_do_not_drift(verb, n, tmp_path):
    if verb == "extend":
        relation = oracles.sparse_poset(random.Random(n), n)
    else:
        relation = oracles.label_bubble_compose(oracles.shuffled_bubble_system(random.Random(n), n))
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(relation.to_json_dict()))
    out = tmp_path / "report.json"
    code = main([verb, "--in", str(path), "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()
    assert digest == KERNEL_PATH_DIGESTS[verb, n]


# sha256 of the exit code and report bytes of the topology verb past the
# listing cap at n = 17, pinned while it still generated the topology first
TOPOLOGY_REFUSAL_DIGESTS = {
    "not-a-preorder": "1ccbcd598388ca476ac7cad244898c9a78cfa567b654623ddeb1fe62559733fd",
    "chain": "411534b71ece48bcf3798b4e7de707eca3105067093a1883ed1428c421b22f85",
}


@pytest.mark.parametrize("case", sorted(TOPOLOGY_REFUSAL_DIGESTS))
def test_topology_refuses_past_the_listing_cap_before_generating(case, tmp_path, monkeypatch):
    labels = [f"x{i}" for i in range(17)]
    if case == "chain":
        pairs = [[x, y] for i, x in enumerate(labels) for y in labels[i:]]
    else:  # x0 below x1 below x2, but not x0 below x2
        pairs = [[x, x] for x in labels] + [["x0", "x1"], ["x1", "x2"]]
    path = tmp_path / "relation.json"
    path.write_text(json.dumps({"elements": labels, "pairs": pairs}))
    for name in ("interval_topology", "_generate"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("generated past the cap"))
    out = tmp_path / "report.json"
    code = main(["topology", "--in", str(path), "--out", str(out)])
    assert code == 1
    digest = hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()
    assert digest == TOPOLOGY_REFUSAL_DIGESTS[case]


# ---------------------------------------------------------------------------
# the topology listing against the label-tuple sort and indented dump

def oracle_report(relation, digest, options) -> bytes:
    """The topology verb's report as it was written from label tuples."""
    topology = interval_topology(relation)
    connectivity = connectivity_report(topology)
    result = {
        "opens": [list(labels) for labels in oracles.label_sorted_opens(topology)],
        "connected": connectivity.connected,
        "gaps": [list(pair) for pair in gaps(relation)],
    }
    if connectivity.clopen_witness is not None:
        result["clopen_witness"] = list(connectivity.clopen_witness)
    report = {"verb": "topology", "input_digest": digest, "options": options, "result": result, "invariants": []}
    return oracles.indented_report_text(report).encode("utf-8")


def emitted(report, out) -> tuple[bytes, bytes]:
    """``_emit``'s bytes on stdout and through a file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._emit(report, None)
    cli._emit(report, str(out))
    return stdout.getvalue().encode("utf-8"), out.read_bytes()


def test_topology_listing_matches_the_oracle_on_small_preorders(tmp_path):
    """Every preorder with n <= 4 under every order of its carrier's labels,
    through the verb's handler and ``_emit``.  Each size has its own set of
    hard labels; together they hold ten of them."""
    options = {"format": "auto", "n": 3, "seed": 0, "faults": []}
    label_sets = {
        4: ("", "x10", "x9", 'opens": []'),
        3: ('"', "\\", "\u00e9"),
        2: ("\n", '"]\n  },\n  "verb": "'),
        1: (" ",),
    }
    out = tmp_path / "report.json"
    for n, label_set in label_sets.items():
        for preorder in enumerate_preorders(n):
            for labels in itertools.permutations(label_set):
                relation = Relation(Carrier(labels), preorder.rows)
                payload, _ = cli._run_topology(relation)
                report = {"verb": "topology", "input_digest": "d", "options": options, "result": payload, "invariants": []}
                expected = oracle_report(relation, "d", options)
                assert emitted(report, out) == (expected, expected), (labels, preorder.rows)


def test_topology_verb_matches_the_oracle_on_seeded_relations(tmp_path):
    """200 seeded chains and bubble relations up to n = 16 with shuffled hard
    labels, through ``main`` on stdout and with ``--out``.  Chains stop at
    n = 12; the 16-chain is a pinned digest above."""
    rnd = random.Random(22)
    path, out = tmp_path / "relation.json", tmp_path / "report.json"
    options = {"format": "auto", "n": 3, "seed": cli.DEFAULT_SEED, "faults": []}
    for k in range(200):
        if k % 2:
            n = rnd.randint(1, 16)
            relation = oracles.label_bubble_compose(oracles.shuffled_bubble_system(rnd, n))
        else:
            n = rnd.randint(1, 12)
            ranks = list(range(n))
            rnd.shuffle(ranks)
            relation = Loset(Carrier(tuple(f"x{i}" for i in range(n))), tuple(ranks)).relation()
        labels = [*HARD_LABELS, *(f"x{i}" for i in range(12, 16))][:n]
        rnd.shuffle(labels)
        payload = relabelled(relation, labels)
        path.write_text(json.dumps(payload), encoding="utf-8")
        expected = oracle_report(relation_from_json_dict(payload), cli._digest(str(path), options), options)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["topology", "--in", str(path)]) == 0
        assert main(["topology", "--in", str(path), "--out", str(out)]) == 0
        assert stdout.getvalue().encode("utf-8") == out.read_bytes() == expected, (k, labels)
