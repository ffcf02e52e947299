"""Command-line surface: parse inputs, run analyses, emit JSON reports.

Reports are deterministic: identical input and options produce
byte-identical output.  Exit codes: 0 success, 1 validation or parse
failure, 2 verified-invariant violation (a sweep failure is a
build-breaking event).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InvariantViolation, NotNegativelyTransitive, OrderError, ParseError
from .order_ext import generalized_utility, szpilrajn_extend
from .relations import (
    Relation,
    check_properties,
    derived_parts,
    relation_from_json_dict,
    relation_from_matrix_text,
)
from .structure import (
    BubbleSystem,
    Loset,
    _require_preorder,
    bourbaki_factor,
    bubble_compose,
    bubble_decompose,
    bubble_system_from_json_dict,
)
from .sweep import DEFAULT_SEED, run_sweep
from .topology import _LISTING_CAP, _require_listable, connectivity_report, continuity_check, gaps, interval_topology

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INVARIANT = 2

VERBS = ("analyze", "decompose", "bubble", "extend", "utility", "topology", "sweep")


def parse_input(path: str, format: str = "auto"):
    """Load a relation or bubble system from a file.

    Formats: relation_json, matrix, bubble_json, or auto (sniff JSON shape,
    fall back to the matrix format).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not valid UTF-8", f"byte {exc.start}") from None
    if format == "matrix":
        return relation_from_matrix_text(text)
    if format not in ("auto", "relation_json", "bubble_json"):
        raise ParseError(f"unknown format {format!r}")
    try:
        payload = _load_json(text)
    except ParseError:
        if format != "auto":
            raise
        return relation_from_matrix_text(text)
    if format == "auto":
        is_system = isinstance(payload, dict) and "bubbles" in payload
        format = "bubble_json" if is_system else "relation_json"
    if format == "bubble_json":
        return bubble_system_from_json_dict(payload)
    return relation_from_json_dict(payload)


def _load_json(text: str):
    """The one JSON path: every way ``json.loads`` can refuse text (bad
    syntax, nesting too deep, an integer past the digit limit) is a
    ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def _digest(path: str | None, options: dict) -> str:
    hasher = hashlib.sha256()
    if path is not None:
        hasher.update(Path(path).read_bytes())
    hasher.update(json.dumps(options, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()


def _property_payload(relation: Relation) -> dict:
    report = check_properties(relation)
    return {
        "flags": report.flags(),
        "witnesses": {k: list(v) for k, v in sorted(report.witnesses.items())},
    }


# ---------------------------------------------------------------------------
# verb handlers: each returns (payload, invariants)

def _run_analyze(relation: Relation):
    parts = derived_parts(relation)
    payload = {
        "properties": _property_payload(relation),
        "derived": {
            "symmetric_part": {
                "pairs": [list(p) for p in parts.symmetric_part.pairs()],
                "properties": _property_payload(parts.symmetric_part),
            },
            "asymmetric_part": {
                "pairs": [list(p) for p in parts.asymmetric_part.pairs()],
                "properties": _property_payload(parts.asymmetric_part),
            },
            "comparability": {"pairs": [list(p) for p in parts.comparability.pairs()]},
            "incomparability": {"pairs": [list(p) for p in parts.incomparability.pairs()]},
        },
    }
    inv = [
        ("symmetric-asymmetric-disjoint",
         all(a & b == 0 for a, b in zip(parts.symmetric_part.rows, parts.asymmetric_part.rows))),
        ("parts-cover-relation",
         tuple(a | b for a, b in zip(parts.symmetric_part.rows, parts.asymmetric_part.rows))
         == relation.rows),
    ]
    return payload, inv


def _run_decompose(relation: Relation):
    try:
        system = bubble_decompose(relation)
    except NotNegativelyTransitive as exc:
        factored = bourbaki_factor(relation)
        payload = {
            "mode": "bourbaki",
            "refusal_witness": list(exc.witness),
            "partition": factored.partition.to_json_dict(),
            "order": list(factored.order.sorted_labels()),
        }
        inv = [("fallback-linear-factor", True)]
        return payload, inv
    rebuilt = bubble_compose(system)
    payload = {"mode": "bubbles", "system": system.to_json_dict()}
    inv = [("decomposition-round-trip", rebuilt.rows == relation.rows)]
    return payload, inv


def _run_bubble(system: BubbleSystem):
    relation = bubble_compose(system)
    again = bubble_decompose(relation)
    payload = {"relation": relation.to_json_dict()}
    inv = [("system-round-trip", again.same_shape(system))]
    return payload, inv


def _run_extend(relation: Relation):
    order = szpilrajn_extend(relation)
    extended = order.relation()
    payload = {
        "order": list(order.sorted_labels()),
        "relation": extended.to_json_dict(),
    }
    report = check_properties(extended)
    inv = [
        ("extension-linear",
         report.reflexive and report.antisymmetric and report.transitive and report.complete),
        ("extension-contains-input",
         all(a | b == a for a, b in zip(extended.rows, relation.rows))),
    ]
    return payload, inv


def _run_utility(relation: Relation):
    assignment = generalized_utility(relation)
    values = assignment.values
    grid_labels = sorted({str(v) for v in values.values()}, key=Fraction)
    grid_order = Loset.chain(tuple(grid_labels))
    grid_topology = interval_topology(grid_order.relation())
    source_topology = interval_topology(relation)
    verdict = continuity_check(
        {x: str(v) for x, v in values.items()}, source_topology, grid_topology
    )
    payload = dict(assignment.to_json_dict())
    payload["continuous"] = verdict.holds
    inv = [("utility-continuous-on-grid", verdict.holds)]
    return payload, inv


def _run_topology(relation: Relation):
    if relation.n > _LISTING_CAP:  # refuse the listing before generating, once the preorder check has run
        _require_preorder(relation)
        _require_listable(relation.n)
    topology = interval_topology(relation)
    connectivity = connectivity_report(topology)
    payload = {
        "opens": [list(labels) for labels in topology.sorted_opens()],
        "connected": connectivity.connected,
        "gaps": [list(pair) for pair in gaps(relation)],
    }
    if connectivity.clopen_witness is not None:
        payload["clopen_witness"] = list(connectivity.clopen_witness)
    return payload, []


def _run_sweep(n: int, seed: int, faults):
    result = run_sweep(n, seed=seed, faults=faults)
    inv = [("sweep-all-checks-pass", result["failures_total"] == 0)]
    return result, inv


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordbubble",
        description="Analyze finite preorders: bubbles, extensions, utilities, topologies.",
    )
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--in", dest="input", help="input file path")
    parser.add_argument("--out", dest="output", help="write the report here instead of stdout")
    parser.add_argument("--n", type=int, default=3, help="carrier size for sweep")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized parts")
    parser.add_argument(
        "--format",
        default="auto",
        choices=("auto", "relation_json", "matrix", "bubble_json"),
    )
    parser.add_argument(
        "--inject-fault",
        dest="faults",
        action="append",
        default=[],
        metavar="NAME",
        help="deliberately corrupt a named check inside the sweep (testing hook)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    options = {
        "format": args.format,
        "n": args.n,
        "seed": args.seed,
        "faults": sorted(args.faults),
    }
    try:
        if args.verb == "sweep":
            payload, invariants = _run_sweep(args.n, args.seed, args.faults)
            digest = _digest(None, options)
        else:
            if not args.input:
                raise ParseError(f"verb {args.verb!r} needs --in PATH")
            loaded = parse_input(args.input, args.format)
            digest = _digest(args.input, options)
            if args.verb == "bubble":
                if not isinstance(loaded, BubbleSystem):
                    raise ParseError("verb 'bubble' needs a bubble-system input")
                payload, invariants = _run_bubble(loaded)
            else:
                if isinstance(loaded, BubbleSystem):
                    raise ParseError(f"verb {args.verb!r} needs a relation input")
                handler = {
                    "analyze": _run_analyze,
                    "decompose": _run_decompose,
                    "extend": _run_extend,
                    "utility": _run_utility,
                    "topology": _run_topology,
                }[args.verb]
                payload, invariants = handler(loaded)
    except InvariantViolation as exc:
        _emit({"error": str(exc), "kind": "invariant-violation"}, args.output)
        return EXIT_INVARIANT
    except OrderError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, args.output)
        return EXIT_INVALID
    except OSError as exc:
        _emit({"error": str(exc), "kind": "io"}, args.output)
        return EXIT_INVALID

    report = {
        "verb": args.verb,
        "input_digest": digest,
        "options": options,
        "result": payload,
        "invariants": [{"check": name, "holds": bool(ok)} for name, ok in invariants],
    }
    _emit(report, args.output)
    if any(not item["holds"] for item in report["invariants"]):
        return EXIT_INVARIANT
    return EXIT_OK


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    raise SystemExit(main())
