import hashlib
import json
import random
import subprocess
import sys

import pytest

import oracles
from ordbubble import cli
from ordbubble.cli import main, parse_input


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


# sha256 of the exit code and report bytes on seeded bubble relations past
# the n <= 14 of the benchmark's golden digests; at n = 64 the topology verb
# refuses to list the opens
REPORT_DIGESTS = {
    ("utility", 14): "d2878b5d2e57cf0d0d225ac8957bc1f5a6b29841a5a12a22248e80ff7ef8f183",
    ("topology", 14): "4fa21d396e5f1e8f2a604fb8713a5aecf57b6d2cbe46b5104ef989d0ce4d1a13",
    ("utility", 64): "9d4f3bf1d6827988357db8af7844f84eff392ff13885b5fc560148df9588db50",
    ("topology", 64): "639952cc425bba7ec438a3d6ec193d8fe38b09988f2191107f77460e450b7197",
}


@pytest.mark.parametrize("verb,n", sorted(REPORT_DIGESTS))
def test_topology_reports_do_not_drift(verb, n, tmp_path):
    relation = oracles.label_bubble_compose(oracles.shuffled_bubble_system(random.Random(n), n))
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(relation.to_json_dict()))
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
    monkeypatch.setattr(cli, "interval_topology", lambda relation: pytest.fail("generated past the cap"))
    out = tmp_path / "report.json"
    code = main(["topology", "--in", str(path), "--out", str(out)])
    assert code == 1
    digest = hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()
    assert digest == TOPOLOGY_REFUSAL_DIGESTS[case]
