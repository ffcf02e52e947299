"""Output checks that do not trust the program.

Stdlib only, like ``gen``.  Each checker compares one operation's output
with what the benchmark knows about the input it generated and returns
``None`` when the output is right, or a one-line reason when it is not.
Relations are row bitmasks over carrier positions, as in ``gen``.
"""

from __future__ import annotations

from fractions import Fraction

# Number of preorders on n labelled elements (OEIS A000798).
PREORDER_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}

FLAGS = (
    "reflexive",
    "irreflexive",
    "symmetric",
    "antisymmetric",
    "asymmetric",
    "complete",
    "transitive",
    "negatively_transitive",
)


def _bit(rows, i, j) -> bool:
    return bool(rows[i] >> j & 1)


def least_witnesses(rows: list[int]) -> dict[str, tuple[int, ...] | None]:
    """Each property's lexicographically least violating tuple of carrier
    positions, or None when it holds, quantified directly."""
    n = len(rows)
    r = range(n)
    R = lambda i, j: _bit(rows, i, j)  # noqa: E731

    def first(cands):
        return next(iter(cands), None)

    return {
        "reflexive": first((i,) for i in r if not R(i, i)),
        "irreflexive": first((i,) for i in r if R(i, i)),
        "symmetric": first((i, j) for i in r for j in r if R(i, j) and not R(j, i)),
        "antisymmetric": first((i, j) for i in r for j in r if i != j and R(i, j) and R(j, i)),
        "asymmetric": first((i, j) for i in r for j in r if R(i, j) and R(j, i)),
        "complete": first((i, j) for i in r for j in r if not R(i, j) and not R(j, i)),
        "transitive": first(
            (i, j, k) for i in r for j in r for k in r if R(i, j) and R(j, k) and not R(i, k)
        ),
        "negatively_transitive": first(
            (i, j, k) for i in r for j in r for k in r if R(i, k) and not R(i, j) and not R(j, k)
        ),
    }


def _parts(rows: list[int]) -> dict[str, list[int]]:
    n = len(rows)
    full = (1 << n) - 1
    tr = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
    return {
        "symmetric_part": [a & b for a, b in zip(rows, tr)],
        "asymmetric_part": [a & ~b for a, b in zip(rows, tr)],
        "comparability": [a | b for a, b in zip(rows, tr)],
        "incomparability": [~(a | b) & full for a, b in zip(rows, tr)],
    }


def _pairs(rows: list[int], labels: list[str]) -> list[list[str]]:
    n = len(rows)
    return [[labels[i], labels[j]] for i in range(n) for j in range(n) if rows[i] >> j & 1]


def _properties(rows: list[int], labels: list[str]) -> dict:
    w = least_witnesses(rows)
    return {
        "flags": {f: w[f] is None for f in FLAGS},
        "witnesses": {f: [labels[i] for i in w[f]] for f in sorted(FLAGS) if w[f] is not None},
    }


def _strict(rows: list[int]) -> list[int]:
    return _parts(rows)["asymmetric_part"]


# ---------------------------------------------------------------------------
# in-process operations

def decomposition(gen: dict, system: dict) -> str | None:
    """``system`` is the bubble-system JSON dict; it must recover the
    generated partition, index order and inner classes, with blocks labelled
    B<i> by least member under carrier order."""
    labels = gen["labels"]
    bubbles = system["bubbles"]
    if system["index"] != [b["label"] for b in bubbles]:
        return "index labels disagree with bubble labels"
    if len(bubbles) != len(gen["bubbles"]):
        return f"{len(bubbles)} bubbles, expected {len(gen['bubbles'])}"
    by_least = sorted(range(len(gen["bubbles"])), key=lambda b: gen["bubbles"][b][0])
    block_label = {b: f"B{k}" for k, b in enumerate(by_least)}
    for b, (got, members, classes) in enumerate(zip(bubbles, gen["bubbles"], gen["classes"])):
        if got["elements"] != [labels[i] for i in members]:
            return f"bubble {b} has elements {got['elements']}"
        if got["label"] != block_label[b]:
            return f"bubble {b} is labelled {got['label']}, expected {block_label[b]}"
        expected = {(labels[i], labels[j]) for cls in classes for i in cls for j in cls}
        if {tuple(p) for p in got["inner_pairs"]} != expected:
            return f"bubble {b} has the wrong inner equivalence"
    return None


def composition(gen: dict, rows: tuple[int, ...]) -> str | None:
    return None if list(rows) == gen["rows"] else "composed rows differ from the input"


def utility(gen: dict, values: dict) -> str | None:
    """Equal within a bubble, strictly increasing along the index."""
    labels = gen["labels"]
    if set(values) != set(labels):
        return "utility is not defined on exactly the carrier"
    previous = None
    for b, members in enumerate(gen["bubbles"]):
        levels = {Fraction(values[labels[i]]) for i in members}
        if len(levels) != 1:
            return f"utility not constant on bubble {b}"
        (level,) = levels
        if not 0 <= level <= 1 or (previous is not None and not previous < level):
            return f"utility not strictly increasing at bubble {b}"
        previous = level
    return None


def extension(gen: dict, order: list[str]) -> str | None:
    """A permutation of the carrier that contains every input pair."""
    labels, rows = gen["labels"], gen["rows"]
    if sorted(order) != sorted(labels):
        return "extension is not a permutation of the carrier"
    rank = {x: r for r, x in enumerate(order)}
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1 and rank[labels[i]] > rank[labels[j]]:
                return f"extension reverses input pair ({labels[i]}, {labels[j]})"
    return None


def cantor(order: list[str], values: dict) -> str | None:
    """Values in [0, 1] that increase with rank, from 0 up to 1."""
    if set(values) != set(order):
        return "embedding is not defined on exactly the carrier"
    seq = [Fraction(values[x]) for x in order]
    if any(not 0 <= v <= 1 for v in seq):
        return "embedding leaves [0, 1]"
    if any(a >= b for a, b in zip(seq, seq[1:])):
        return "embedding does not increase with rank"
    if len(seq) > 1 and (seq[0] != 0 or seq[-1] != 1):
        return "embedding does not span 0..1"
    return None


def projection(report: dict) -> str | None:
    """Every projection fact holds for a bubble coproduct."""
    failing = [name for name, holds in report.items() if holds is not True]
    return f"projection facts fail: {failing}" if failing else None


def sweep(n: int, seed: int, result: dict) -> str | None:
    if result.get("n") != n or result.get("seed") != seed:
        return "sweep echoes the wrong n or seed"
    if result.get("failures_total") != 0:
        return f"sweep reports {result.get('failures_total')} failures"
    counts = (result.get("preorder_count_filter"), result.get("preorder_count_pairs"))
    if counts != (PREORDER_COUNTS[n], PREORDER_COUNTS[n]):
        return f"sweep counts {counts} preorders, expected {PREORDER_COUNTS[n]}"
    if not result.get("checks") or any(c["failures"] for c in result["checks"].values()):
        return "sweep check table is empty or has failures"
    return None


# ---------------------------------------------------------------------------
# command-line reports

def cli_report(entry: dict, code: int, report: dict) -> str | None:
    """Check one command-line call against what its input must produce."""
    if code != entry["expect_code"]:
        return f"exit code {code}, expected {entry['expect_code']}"
    if code != 0:
        if report.get("kind") != entry["expect_kind"]:
            return f"refusal kind {report.get('kind')}, expected {entry['expect_kind']}"
        return None
    if report.get("verb") != entry["verb"]:
        return "report names the wrong verb"
    if any(not inv["holds"] for inv in report["invariants"]):
        return "report lists a failed invariant"
    return _CLI_CHECKS[entry["check"]](entry, report["result"])


def _analyze(entry, result) -> str | None:
    rows, labels = entry["rows"], entry["labels"]
    if result["properties"] != _properties(rows, labels):
        return "property flags or witnesses differ"
    parts = _parts(rows)
    derived = result["derived"]
    for name, part in parts.items():
        if derived[name]["pairs"] != _pairs(part, labels):
            return f"derived {name} pairs differ"
    for name in ("symmetric_part", "asymmetric_part"):
        if derived[name]["properties"] != _properties(parts[name], labels):
            return f"derived {name} properties differ"
    return None


def _decompose_bubbles(entry, result) -> str | None:
    if result.get("mode") != "bubbles":
        return "decomposable preorder took the fallback"
    return decomposition(entry["gen"], result["system"])


def _decompose_fallback(entry, result) -> str | None:
    """Bourbaki fallback: a valid refusal witness, blocks glued by chained
    strict incomparability, and blocks in a linear order."""
    if result.get("mode") != "bourbaki":
        return "non-decomposable preorder was not refused"
    rows, labels = entry["rows"], entry["labels"]
    n = len(rows)
    pos = {x: i for i, x in enumerate(labels)}
    strict = _strict(rows)
    x, y, z = (pos[w] for w in result["refusal_witness"])
    if not (_bit(strict, x, z) and not _bit(strict, x, y) and not _bit(strict, y, z)):
        return "refusal witness does not violate negative transitivity"
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(n):
            if not _bit(strict, i, j) and not _bit(strict, j, i):
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    blocks = sorted(groups.values(), key=lambda g: g[0])
    if result["partition"]["blocks"] != [[labels[i] for i in g] for g in blocks]:
        return "fallback blocks are not the chained-incomparability classes"
    order = result["order"]
    if sorted(order) != sorted(f"B{k}" for k in range(len(blocks))):
        return "fallback order is not a permutation of the blocks"
    seq = [blocks[int(label[1:])] for label in order]
    for lo in range(len(seq)):
        for hi in range(lo + 1, len(seq)):
            if any(_bit(strict, b, a) for a in seq[lo] for b in seq[hi]):
                return "fallback order contradicts the strict part"
    return None


def _bubble(entry, result) -> str | None:
    labels, rows = entry["labels"], entry["rows"]
    got = result["relation"]
    if got["elements"] != labels or got["pairs"] != _pairs(rows, labels):
        return "composed relation differs from the bubble system"
    return None


def _extend(entry, result) -> str | None:
    return extension({"labels": entry["labels"], "rows": entry["rows"]}, result["order"])


def _utility(entry, result) -> str | None:
    if result.get("interval") != "[0,1]" or result.get("continuous") is not True:
        return "utility interval or continuity verdict is wrong"
    return utility(entry["gen"], result["values"])


def _topology(entry, result) -> str | None:
    """The opens are exactly the unions of the minimal neighbourhoods of the
    interval subbase; connectivity, witness and gaps follow from them."""
    rows, labels = entry["rows"], entry["labels"]
    n = len(rows)
    full = (1 << n) - 1
    pos = {x: i for i, x in enumerate(labels)}
    strict = _strict(rows)
    below = [sum(1 << i for i in range(n) if strict[i] >> j & 1) for j in range(n)]
    extents = [strict[i] & below[j] for i in range(n) for j in range(n) if strict[i] >> j & 1]
    extents += below + strict
    hood = []
    for p in range(n):
        acc = full
        for e in extents:
            if e >> p & 1:
                acc &= e
        hood.append(acc)
    listed = result["opens"]
    if listed != sorted(listed, key=lambda s: (len(s), s)):
        return "opens are not sorted by size then labels"
    masks = [sum(1 << pos[x] for x in labels_) for labels_ in listed]
    opens = set(masks)
    if len(opens) != len(masks) or 0 not in opens or full not in opens:
        return "opens repeat or miss the empty set or the carrier"
    for m in masks:
        rest = m
        while rest:
            p = (rest & -rest).bit_length() - 1
            if hood[p] & ~m:
                return "an open is not a union of minimal neighbourhoods"
            rest &= rest - 1
        if any(m | h not in opens for h in hood):
            return "opens are not closed under union with a neighbourhood"
    reach, frontier = 1, 1
    while frontier:
        grown = reach
        for p in range(n):
            if (frontier >> p & 1) or (hood[p] & frontier):
                grown |= hood[p] | (1 << p)
        frontier = grown & ~reach
        reach = grown
    connected = reach == full
    if result["connected"] is not connected:
        return "connectivity verdict is wrong"
    if not connected:
        first = next(
            labels_ for labels_, m in zip(listed, masks) if m not in (0, full) and full & ~m in opens
        )
        if result.get("clopen_witness") != first:
            return "clopen witness is not the least proper clopen"
    gaps = [
        [labels[i], labels[j]]
        for i in range(n)
        for j in range(n)
        if strict[i] >> j & 1 and not strict[i] & below[j]
    ]
    if result["gaps"] != gaps:
        return "gap list differs"
    return None


def _sweep(entry, result) -> str | None:
    return sweep(*entry["sweep"], result)


_CLI_CHECKS = {
    "analyze": _analyze,
    "decompose-bubbles": _decompose_bubbles,
    "decompose-fallback": _decompose_fallback,
    "bubble": _bubble,
    "extend": _extend,
    "utility": _utility,
    "topology": _topology,
    "sweep": _sweep,
}
