"""Seeded input generators for the benchmark.

Stdlib only: this module imports nothing from ``ordbubble``, so a change to
the program cannot change what the benchmark feeds it.  A relation is a
list of row bitmasks over carrier positions (bit ``j`` of ``rows[i]`` says
``(i, j)`` is a member), plus a list of labels in carrier order.  Every
function takes a ``random.Random`` and draws from nothing else.
"""

from __future__ import annotations

import json
import random


def closure(rows: list[int]) -> list[int]:
    """Reflexive-transitive closure (Warshall over row bitmasks)."""
    n = len(rows)
    out = [row | (1 << i) for i, row in enumerate(rows)]
    for k in range(n):
        row_k = out[k]
        for i in range(n):
            if out[i] >> k & 1:
                out[i] |= row_k
    return out


def strict_rows(rows: list[int]) -> list[int]:
    """The asymmetric part: (i, j) with i R j and not j R i."""
    n = len(rows)
    return [
        sum(1 << j for j in range(n) if row >> j & 1 and not rows[j] >> i & 1)
        for i, row in enumerate(rows)
    ]


def is_transitive(rows: list[int]) -> bool:
    for row in rows:
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            if rows[j] & ~row:
                return False
            r &= r - 1
    return True


def is_negatively_transitive(rows: list[int]) -> bool:
    """x R z implies x R y or y R z, for all x, y, z."""
    n = len(rows)
    for x in range(n):
        for z in range(n):
            if rows[x] >> z & 1:
                for y in range(n):
                    if not rows[x] >> y & 1 and not rows[y] >> z & 1:
                        return False
    return True


def _labels(rnd: random.Random, n: int, prefix: str) -> list[str]:
    """Distinct labels whose numbering is shuffled against carrier order."""
    numbers = list(range(n))
    rnd.shuffle(numbers)
    return [f"{prefix}{k}" for k in numbers]


def bubble_system(
    rnd: random.Random, n: int, max_bubble: int = 4, prefix: str = "x", count: int | None = None
) -> dict:
    """A random bubble system over n elements and its composed preorder.

    Bubbles hold 1..max_bubble elements (or, when ``count`` is given,
    exactly ``count`` bubbles of random sizes) at shuffled carrier
    positions, so no bubble is contiguous in carrier order.  Inside a
    bubble the elements are split at random into equivalence classes.

    Returns ``labels``, ``bubbles`` (carrier positions per bubble, in index
    order), ``classes`` (per bubble, a list of position lists) and ``rows``
    (x <= y iff x's bubble is lower, or same bubble and same class).
    """
    positions = list(range(n))
    rnd.shuffle(positions)
    if count is None:
        cuts = [0]
        while cuts[-1] < n:
            cuts.append(min(cuts[-1] + rnd.randint(1, max_bubble), n))
    else:
        cuts = [0] + sorted(rnd.sample(range(1, n), count - 1)) + [n]
    bubbles = [sorted(positions[a:b]) for a, b in zip(cuts, cuts[1:])]
    level = [0] * n
    tag = [0] * n
    classes = []
    for b, members in enumerate(bubbles):
        picks = {i: rnd.randrange(len(members)) for i in members}
        groups: dict[int, list[int]] = {}
        for i in members:
            level[i] = b
            tag[i] = picks[i]
            groups.setdefault(picks[i], []).append(i)
        classes.append(sorted(groups.values()))
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if level[i] < level[j] or (level[i] == level[j] and tag[i] == tag[j]):
                row |= 1 << j
        rows.append(row)
    return {
        "labels": _labels(rnd, n, prefix),
        "bubbles": bubbles,
        "classes": classes,
        "rows": rows,
    }


def chain(rnd: random.Random, n: int, prefix: str = "c") -> dict:
    """A linear order (reflexive) whose ranks are shuffled against carrier
    order: the bubble system of n singletons."""
    return bubble_system(rnd, n, max_bubble=1, prefix=prefix)


def partial_order(rnd: random.Random, n: int, width: int = 4, degree: int = 2, prefix: str = "p") -> dict:
    """A sparse random partial order, reflexive and transitively closed.

    Carrier positions are shuffled and cut into layers of ``width``; each
    element gets ``degree`` random successors in the next layer.  The
    layered shape keeps the cost of extending one instance close to that
    of another of the same size: with width 8 and degree 2, the median
    Szpilrajn step count of 12 instances at n=48 is about 125, and its
    interquartile range over 20 seeds is about 4% of that.
    """
    order = list(range(n))
    rnd.shuffle(order)
    layers = [order[k : k + width] for k in range(0, n, width)]
    rows = [0] * n
    for lower, upper in zip(layers, layers[1:]):
        for x in lower:
            for y in rnd.sample(upper, min(degree, len(upper))):
                rows[x] |= 1 << y
    return {"labels": _labels(rnd, n, prefix), "rows": closure(rows)}


def _inflate(rnd: random.Random, base: list[int], n: int) -> list[int]:
    """Preorder over n elements that maps onto the partial order ``base``
    (over n or fewer points); elements sharing a point are equivalent."""
    points = len(base)
    image = list(range(points)) + [rnd.randrange(points) for _ in range(n - points)]
    rnd.shuffle(image)
    return [sum(1 << j for j in range(n) if base[image[i]] >> image[j] & 1) for i in range(n)]


def non_decomposable_preorder(rnd: random.Random, n: int, prefix: str = "q") -> dict:
    """A preorder (with some equivalent elements) whose strict part is not
    negatively transitive, so it has no bubble decomposition.  Needs n >= 4."""
    while True:
        points = max(4, n - rnd.randint(0, n // 3))
        rows = _inflate(rnd, partial_order(rnd, points, width=2, degree=1)["rows"], n)
        if not is_negatively_transitive(strict_rows(rows)):
            return {"labels": _labels(rnd, n, prefix), "rows": rows}


def non_partial_order(rnd: random.Random, n: int, prefix: str = "q") -> dict:
    """A preorder with two distinct equivalent elements, so it is not
    antisymmetric and ``extend`` must refuse it.  Needs n >= 2."""
    rows = _inflate(rnd, partial_order(rnd, n - 1, width=2, degree=1)["rows"], n)
    return {"labels": _labels(rnd, n, prefix), "rows": rows}


def non_preorder(rnd: random.Random, n: int, prefix: str = "r") -> dict:
    """A random relation that is not transitive, so it is not a preorder."""
    while True:
        rows = random_relation(rnd, n, prefix)["rows"]
        rows = [row | (1 << i) for i, row in enumerate(rows)]
        if not is_transitive(rows):
            return {"labels": _labels(rnd, n, prefix), "rows": rows}


def random_relation(rnd: random.Random, n: int, prefix: str = "r") -> dict:
    """A uniformly random relation (each pair present with probability 1/2)."""
    return {"labels": _labels(rnd, n, prefix), "rows": [rnd.getrandbits(n) for _ in range(n)]}


# ---------------------------------------------------------------------------
# input files, in the three formats the command line reads

def relation_json(gen: dict) -> str:
    labels, rows = gen["labels"], gen["rows"]
    n = len(rows)
    pairs = [[labels[i], labels[j]] for i in range(n) for j in range(n) if rows[i] >> j & 1]
    rnd = random.Random(len(pairs))
    rnd.shuffle(pairs)  # the reader must not depend on pair order
    return json.dumps({"elements": labels, "pairs": pairs})


def matrix_text(gen: dict) -> str:
    """Matrix format; the reader labels the elements e0..e{n-1}."""
    rows = gen["rows"]
    n = len(rows)
    lines = [str(n)] + ["".join("1" if row >> j & 1 else "0" for j in range(n)) for row in rows]
    return "\n".join(lines) + "\n"


def matrix_labels(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


def bubble_json(gen: dict) -> dict:
    """Bubble-system JSON payload for a ``bubble_system`` result.

    Bubble elements are listed in carrier order and the bubbles in index
    order, so the reader rebuilds the same carrier order as ``rows``.
    """
    labels = gen["labels"]
    entries = []
    for b, (members, classes) in enumerate(zip(gen["bubbles"], gen["classes"])):
        inner = [[labels[i], labels[j]] for cls in classes for i in cls for j in cls]
        entries.append(
            {"label": f"I{b}", "elements": [labels[i] for i in members], "inner_pairs": inner}
        )
    return {"index": [f"I{b}" for b in range(len(entries))], "bubbles": entries}


def bubble_carrier(gen: dict) -> tuple[list[str], list[int]]:
    """Carrier order the bubble-JSON reader builds (bubble after bubble),
    as labels and as the generator positions they came from."""
    positions = [i for members in gen["bubbles"] for i in members]
    return [gen["labels"][i] for i in positions], positions


def reindex(rows: list[int], positions: list[int]) -> list[int]:
    """Rows of the same relation over the carrier order ``positions``."""
    out = []
    for i in positions:
        row = 0
        for new_j, j in enumerate(positions):
            if rows[i] >> j & 1:
                row |= 1 << new_j
        out.append(row)
    return out
