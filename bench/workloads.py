"""The benchmark's workloads.

A workload turns a seed into one fixed *pass*: a list of operations, each a
single call into ``ordbubble`` plus the benchmark's own check of its
output.  The run repeats the pass in a closed loop (one caller, one call at
a time).  Every operation belongs to one of three size tiers, so each
workload reports a three-point latency curve over carrier size n.

Inputs come from ``gen`` (stdlib only); the program is handed only those
inputs, through its public constructors, files or command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import check
import gen

TIERS = ("small", "mid", "large")

WHY = {
    "bubbles-large": (
        "decompose -> compose -> utility on bubble systems at n 64/128/256: the O(n^3) "
        "negative-transitivity scan, n^2 Relation.has probes and per-bubble batteries dominate"
    ),
    "extend-large": (
        "Szpilrajn extension + Cantor embedding of sparse partial orders at n 16/32/48: two "
        "predicate batteries per adjoined pair (the O(n^5) path) dominate"
    ),
    "corpus-small": (
        "in-process CLI calls on inputs of n 3-14 (every verb; sweep at n=3) with refusals and the "
        "Bourbaki fallback: per-call costs, parse/emit and topology open-set enumeration dominate"
    ),
}


@dataclass
class Op:
    """One timed call.  ``run`` is the call; ``finish`` checks its output
    and returns (reason it is wrong or None, digest of the output)."""

    id: str
    tier: str
    size: str
    verb: str | None
    run: Callable[[], Any]
    finish: Callable[[Any], tuple[str | None, str]]
    argv: list[str] | None = None


def digest(value: Any) -> str:
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def _relation(ob, g: dict):
    return ob.relations.Relation(ob.relations.Carrier(tuple(g["labels"])), tuple(g["rows"]))


def _first_error(*reasons):
    return next((r for r in reasons if r is not None), None)


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over size groups, so a pass mixes sizes evenly."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out.extend(g[k] for g in groups if k < len(g))
    return out


# ---------------------------------------------------------------------------
# bubbles-large

def bubbles_large(ob, seed: int, config: dict, workdir: str) -> list[Op]:
    rnd = random.Random(f"bubbles-large/{seed}")
    groups = []
    for tier, (n, count) in zip(TIERS, config["sizes"]):
        group = []
        for k in range(count):
            g = gen.bubble_system(rnd, n)
            group.append(_bubble_op(ob, g, tier, f"n{n}", f"n{n}#{k}"))
        groups.append(group)
    return _interleave(groups)


def _bubble_op(ob, g: dict, tier: str, size: str, op_id: str) -> Op:
    relation = _relation(ob, g)
    structure, order_ext = ob.structure, ob.order_ext

    def run():
        system = structure.bubble_decompose(relation)
        composed = structure.bubble_compose(system)
        utility = order_ext.generalized_utility(relation)
        return system, composed, utility

    def finish(out):
        system, composed, utility = out
        payload = system.to_json_dict()
        values = {x: str(v) for x, v in utility.values.items()}
        reason = _first_error(
            check.decomposition(g, payload),
            check.composition(g, composed.rows),
            check.utility(g, values),
        )
        return reason, digest([payload, values])

    return Op(op_id, tier, size, None, run, finish)


# ---------------------------------------------------------------------------
# extend-large

def extend_large(ob, seed: int, config: dict, workdir: str) -> list[Op]:
    rnd = random.Random(f"extend-large/{seed}")
    groups = []
    for tier, (n, count) in zip(TIERS, config["sizes"]):
        group = []
        for k in range(count):
            g = gen.partial_order(rnd, n, width=8)
            group.append(_extend_op(ob, g, tier, f"n{n}", f"n{n}#{k}"))
        groups.append(group)
    return _interleave(groups)


def _extend_op(ob, g: dict, tier: str, size: str, op_id: str) -> Op:
    relation = _relation(ob, g)
    order_ext = ob.order_ext

    def run():
        loset = order_ext.szpilrajn_extend(relation)
        return loset.sorted_labels(), order_ext.cantor_embed(loset)

    def finish(out):
        order, values = list(out[0]), {x: str(v) for x, v in out[1].items()}
        reason = _first_error(check.extension(g, order), check.cantor(order, values))
        return reason, digest([order, values])

    return Op(op_id, tier, size, None, run, finish)


# ---------------------------------------------------------------------------
# corpus-small

# (verb, input kind, format, size offset inside the tier).  The same mix is
# built in every tier; the seed changes the inputs, never the mix.  The
# sweep enumerates every relation on n elements, so it runs only where
# n <= 4, in the small tier.
CORPUS_MIX = (
    ("analyze", "random", "relation_json", 0),
    ("analyze", "random", "matrix", 1),
    ("decompose", "bubbles", "relation_json", 2),
    ("decompose", "non_decomposable", "matrix", 3),
    ("decompose", "non_preorder", "relation_json", 1),
    ("bubble", "bubbles", "bubble_json", 2),
    ("extend", "partial_order", "matrix", 3),
    ("extend", "non_partial_order", "relation_json", 0),
    ("utility", "bubbles", "relation_json", 3),
    ("utility", "non_decomposable", "matrix", 2),
    ("topology", "chain", "relation_json", 3),
    ("topology", "many_bubbles", "relation_json", 2),
    ("projection", "bubbles", "bubble_json", 1),
    ("sweep", "exhaustive", None, 0),
)

# carrier sizes per tier; the size offset above picks lo + offset
CORPUS_TIERS = {"small": 3, "mid": 7, "large": 11}


def _corpus_input(rnd: random.Random, kind: str, n: int) -> dict:
    if kind == "random":
        return gen.random_relation(rnd, n)
    if kind == "bubbles":
        return gen.bubble_system(rnd, n)
    if kind == "many_bubbles":
        return gen.bubble_system(rnd, n, count=n - 2)
    if kind == "chain":
        return gen.chain(rnd, n)
    if kind == "partial_order":
        return gen.partial_order(rnd, n, width=3)
    return {
        "non_decomposable": gen.non_decomposable_preorder,
        "non_preorder": gen.non_preorder,
        "non_partial_order": gen.non_partial_order,
    }[kind](rnd, n)


def _expectation(verb: str, kind: str) -> tuple[int, str | None, str]:
    """Exit code, refusal kind and check name the input must produce."""
    if verb == "decompose":
        if kind == "non_preorder":
            return 1, "NotAPreorder", ""
        return 0, None, "decompose-bubbles" if kind == "bubbles" else "decompose-fallback"
    if verb == "extend" and kind == "non_partial_order":
        return 1, "NotAPartialOrder", ""
    if verb == "utility" and kind == "non_decomposable":
        return 1, "NotNegativelyTransitive", ""
    return 0, None, verb


def corpus_small(ob, seed: int, config: dict, workdir: str) -> list[Op]:
    rnd = random.Random(f"corpus-small/{seed}")
    ops = []
    for tier in TIERS:
        for copy in range(config["copies"]):
            for k, (verb, kind, fmt, offset) in enumerate(CORPUS_MIX):
                n = CORPUS_TIERS[tier] + offset
                if verb == "sweep" and n > 4:
                    continue
                ops.append(_corpus_op(ob, rnd, workdir, f"{tier}/{k}.{copy}", tier, k, verb, kind, fmt, n))
    return ops


def _corpus_op(ob, rnd, workdir: str, key: str, tier: str, k: int, verb: str, kind: str, fmt, n: int) -> Op:
    """Write the input of one entry of the mix and return its op."""
    op_id = f"{key}-{verb}-{kind}"
    stem = os.path.join(workdir, key.replace("/", "-"))
    out = stem + ".out"
    if verb == "sweep":
        sweep_seed = rnd.randrange(1 << 16)
        argv = ["sweep", "--n", str(n), "--seed", str(sweep_seed), "--out", out]
        entry = {"verb": verb, "expect_code": 0, "check": "sweep", "sweep": (n, sweep_seed)}
        return _cli_op(ob, argv, out, entry, tier, f"n{n}", op_id)
    g = _corpus_input(rnd, kind, n)
    path = stem + ".in"
    if fmt == "bubble_json":
        payload = gen.bubble_json(g)
        labels, positions = gen.bubble_carrier(g)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        entry_gen = {"labels": labels, "rows": gen.reindex(g["rows"], positions)}
    else:
        text = gen.matrix_text(g) if fmt == "matrix" else gen.relation_json(g)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        labels = gen.matrix_labels(n) if fmt == "matrix" else g["labels"]
        entry_gen = dict(g, labels=labels)
    if verb == "projection":
        return _projection_op(ob, payload, tier, f"n{n}", op_id)
    code, refusal, check_name = _expectation(verb, kind)
    entry = {
        "verb": verb,
        "expect_code": code,
        "expect_kind": refusal,
        "check": check_name,
        "labels": entry_gen["labels"],
        "rows": entry_gen["rows"],
        "gen": entry_gen,
    }
    argv = [verb, "--in", path, "--out", out]
    if fmt == "matrix" and k % 2:
        argv += ["--format", "matrix"]
    return _cli_op(ob, argv, out, entry, tier, f"n{n}", op_id)


def _cli_op(ob, argv: list[str], out: str, entry: dict, tier: str, size: str, op_id: str) -> Op:
    def run():
        try:
            return ob.cli.main(argv)
        except SystemExit as exc:  # argparse exits instead of returning
            return exc.code

    def finish(code):
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)  # a call that writes nothing must not pass on this output
        reason = check.cli_report(entry, code, json.loads(data))
        return reason, digest(bytes([code]) + data)

    return Op(op_id, tier, size, entry["verb"], run, finish, argv)


def _projection_op(ob, payload: dict, tier: str, size: str, op_id: str) -> Op:
    structure, topology = ob.structure, ob.topology

    def run():
        return topology.projection_check(structure.bubble_system_from_json_dict(payload))

    def finish(report):
        facts = dict(vars(report))
        return check.projection(facts), digest(facts)

    return Op(op_id, tier, size, None, run, finish)


# ---------------------------------------------------------------------------

BUILDERS = {
    "bubbles-large": bubbles_large,
    "extend-large": extend_large,
    "corpus-small": corpus_small,
}

# Full settings.  For the large workloads, (n, instances) per tier: the
# middle tier holds the most ops, so op_p50_ms falls inside it rather than
# on the boundary between two sizes, and the large tier holds at least a
# tenth of the ops, so op_p95_ms falls inside that.  The n=512 tier is left
# out: one bubbles op there takes about 30 s.  An n=16 extension's cost
# varies by about 1.4x between instances, so that tier holds 24 of them;
# with 12, its median moved by up to 15% from seed to seed.  For
# corpus-small, copies of the mix per tier: with one copy a tier median is
# the median of 13 ops of very different cost, and which input lands in the
# middle moved it by about 25% from seed to seed; with five, by up to 13%.
CONFIG = {
    "bubbles-large": {"sizes": [(64, 3), (128, 4), (256, 2)]},
    "extend-large": {"sizes": [(16, 24), (32, 36), (48, 12)]},
    "corpus-small": {"copies": 8},
}

# Tiny settings for the self-tests: same code paths, small n.
SMOKE = {
    "bubbles-large": {"sizes": [(6, 1), (9, 1), (12, 2)]},
    "extend-large": {"sizes": [(5, 1), (6, 1), (8, 2)]},
    "corpus-small": {"copies": 1},
}
