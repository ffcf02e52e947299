"""Exhaustive and randomized invariant sweeps over small carriers.

The battery evaluates the package's logical identities on every relation of
a small carrier (or a seeded random sample of larger ones), counts
preorders two independent ways, and round-trips decompositions and linear
extensions.  Each check carries a neutral name; a sweep with any failure is
a build-breaking event for the CLI.

The batteries evaluate every property with the witness kernels of
``relations``; this module defines none of its own.

Fault injection (``faults={"saturation"}`` etc.) deliberately corrupts one
predicate so harness wiring can be tested end to end: a corrupted check
must surface as a reported failure.  Faults are resolved at the entry of
each of the four batteries, which pick a negated negative-transitivity or
saturation predicate when that fault is injected; no kernel sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ValidationError
from .relations import (
    Carrier,
    Relation,
    _antisymmetric_witness,
    _asymmetric_witness,
    _complete_witness,
    _compose_witness,
    _irreflexive_witness,
    _neg_transitive_witness,
    _reflexive_witness,
    _symmetric_witness,
    _transitive_witness,
    all_rows,
    closure_rows,
    complement_rows,
    diagonal_rows,
    transpose_rows,
)
from .structure import (
    Bubble,
    BubbleSystem,
    Loset,
    bourbaki_factor,
    bubble_compose,
    bubble_decompose,
    enumerate_preorders,
)
from .factor import EquivalenceRelation
from .order_ext import szpilrajn_extend

KNOWN_FAULTS = ("saturation", "negative-transitivity")

DEFAULT_SEED = 20645


@dataclass
class CheckTally:
    instances: int = 0
    failures: int = 0
    first_failure: tuple | None = None

    def record(self, ok: bool, witness=None):
        self.instances += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = witness


@dataclass
class SweepTallies:
    checks: dict[str, CheckTally] = field(default_factory=dict)

    def record(self, name: str, ok: bool, witness=None):
        self.checks.setdefault(name, CheckTally()).record(ok, witness)

    def failures_total(self) -> int:
        return sum(t.failures for t in self.checks.values())

    def as_dict(self) -> dict:
        return {
            name: {"instances": tally.instances, "failures": tally.failures}
            for name, tally in sorted(self.checks.items())
        }


# ---------------------------------------------------------------------------
# the predicates the batteries pick by fault

def _saturated(s, e, n) -> bool:
    """Full saturation of s for e: e.s and s.e both land inside s."""
    return _compose_witness(e, s, s, n) is None and _compose_witness(s, e, s, n) is None


# Keyed by whether the fault is injected; an injected fault negates the
# predicate.
_NEGATIVELY_TRANSITIVE = {
    False: lambda rows, n: _neg_transitive_witness(rows, n) is None,
    True: lambda rows, n: _neg_transitive_witness(rows, n) is not None,
}
_SATURATED = {False: _saturated, True: lambda s, e, n: not _saturated(s, e, n)}


# ---------------------------------------------------------------------------
# enumerators and generators

def set_partitions(items: tuple) -> Iterator[tuple[tuple, ...]]:
    """All set partitions, in restricted-growth order."""
    n = len(items)
    if n == 0:
        yield ()
        return
    codes = [0] * n

    def rec(i: int, maxcode: int):
        if i == n:
            blocks: dict[int, list] = {}
            for item, code in zip(items, codes):
                blocks.setdefault(code, []).append(item)
            yield tuple(tuple(b) for _, b in sorted(blocks.items()))
            return
        for code in range(maxcode + 2):
            codes[i] = code
            yield from rec(i + 1, max(maxcode, code))

    yield from rec(1, 0)


def equivalence_rows_from_blocks(blocks: Iterable[Iterable[int]], n: int) -> tuple[int, ...]:
    rows = [0] * n
    for block in blocks:
        mask = 0
        for i in block:
            mask |= 1 << i
        for i in block:
            rows[i] = mask
    return tuple(rows)


def all_equivalence_rows(n: int) -> Iterator[tuple[int, ...]]:
    for blocks in set_partitions(tuple(range(n))):
        yield equivalence_rows_from_blocks(blocks, n)


def equivalence_free_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (equivalence, relation outside it) pair on n elements: each
    equivalence with every subset of the cells it leaves free."""
    for e_rows in all_equivalence_rows(n):
        free = [(i, j) for i in range(n) for j in range(n) if not e_rows[i] >> j & 1]
        for code in range(1 << len(free)):
            f_rows = [0] * n
            for k, (i, j) in enumerate(free):
                if code >> k & 1:
                    f_rows[i] |= 1 << j
            yield e_rows, tuple(f_rows)


def all_partial_order_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Every partial order on n elements: reflexive and antisymmetric by
    construction (3 states per unordered pair), filtered for transitivity."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    state = [0] * len(pairs)

    def build() -> tuple[int, ...]:
        rows = list(diagonal_rows(n))
        for (i, j), s in zip(pairs, state):
            if s == 1:
                rows[i] |= 1 << j
            elif s == 2:
                rows[j] |= 1 << i
        return tuple(rows)

    def rec(k: int):
        if k == len(pairs):
            rows = build()
            if _transitive_witness(rows, n) is None:
                yield rows
            return
        for s in (0, 1, 2):
            state[k] = s
            yield from rec(k + 1)

    yield from rec(0)


def count_split_pairs(n: int) -> int:
    """Independent preorder count: valid (equivalence, strict) pairs where
    the strict part is asymmetric, transitive, saturated and disjoint."""
    return sum(
        1
        for e_rows, f_rows in equivalence_free_pairs(n)
        if _asymmetric_witness(f_rows, transpose_rows(f_rows, n), n) is None
        and _transitive_witness(f_rows, n) is None
        and _saturated(f_rows, e_rows, n)
    )


def random_rows(rnd: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rnd.getrandbits(n) for _ in range(n))


def random_equivalence_rows(rnd: random.Random, n: int) -> tuple[int, ...]:
    labels = list(range(n))
    rnd.shuffle(labels)
    blocks = []
    start = 0
    while start < n:
        size = rnd.randint(1, n - start)
        blocks.append(labels[start : start + size])
        start += size
    return equivalence_rows_from_blocks(blocks, n)


def random_preorder_rows(rnd: random.Random, n: int) -> tuple[int, ...]:
    """A random preorder: the reflexive-transitive closure of random pairs."""
    sparse = tuple(rnd.getrandbits(n) & rnd.getrandbits(n) for _ in range(n))
    with_diagonal = tuple(row | (1 << i) for i, row in enumerate(sparse))
    return closure_rows(with_diagonal, n)


def random_bubble_system(
    rnd: random.Random,
    max_index: int = 5,
    max_bubble: int = 3,
    prefix: str = "e",
) -> BubbleSystem:
    count = rnd.randint(1, max_index)
    sizes = [rnd.randint(1, max_bubble) for _ in range(count)]
    labels = [f"{prefix}{k}" for k in range(sum(sizes))]
    bubbles = []
    projection = {}
    start = 0
    for b, size in enumerate(sizes):
        elems = tuple(labels[start : start + size])
        start += size
        members = list(range(size))
        rnd.shuffle(members)
        blocks = []
        at = 0
        while at < size:
            take = rnd.randint(1, size - at)
            blocks.append([members[i] for i in range(at, at + take)])
            at += take
        rows = equivalence_rows_from_blocks(blocks, size)
        inner = EquivalenceRelation(Relation(Carrier(elems), rows))
        bubbles.append(Bubble(elems, inner))
        projection.update({x: f"I{b}" for x in elems})
    index = Loset.chain(tuple(f"I{b}" for b in range(count)))
    return BubbleSystem(
        carrier=Carrier(tuple(labels)),
        index=index,
        bubbles=tuple(bubbles),
        projection=projection,
    )


# ---------------------------------------------------------------------------
# the battery

def relation_battery(rows: tuple[int, ...], n: int, tallies: SweepTallies, faults=frozenset()):
    """Identities that hold for every relation, plus the preorder and
    strict-order consequences when the hypotheses apply."""
    negtrans = _NEGATIVELY_TRANSITIVE["negative-transitivity" in faults]
    full = (1 << n) - 1
    tr = transpose_rows(rows, n)
    comp = complement_rows(rows, n)
    comp_tr = complement_rows(tr, n)

    sym_r = _symmetric_witness(rows, tr, n) is None
    asym_r = _asymmetric_witness(rows, tr, n) is None
    refl_r = _reflexive_witness(rows, n) is None
    irrefl_r = _irreflexive_witness(rows, n) is None
    antisym_r = _antisymmetric_witness(rows, tr, n) is None
    complete_r = _complete_witness(rows, tr, n) is None
    trans_r = _transitive_witness(rows, n) is None
    negtrans_r = negtrans(rows, n)

    # symmetry/asymmetry/transitivity transfer to the inverse and complement
    tallies.record(
        "inverse-complement-symmetry",
        sym_r
        == (_symmetric_witness(tr, rows, n) is None)
        == (_symmetric_witness(comp, comp_tr, n) is None),
        rows,
    )
    tallies.record(
        "inverse-asymmetry-complement-completeness",
        asym_r
        == (_asymmetric_witness(tr, rows, n) is None)
        == (_complete_witness(comp, comp_tr, n) is None),
        rows,
    )
    tallies.record(
        "transitivity-inverse-and-complement",
        trans_r == (_transitive_witness(tr, n) is None) and trans_r == negtrans(comp, n),
        rows,
    )
    tallies.record(
        "negative-transitivity-inverse-and-complement",
        negtrans_r == negtrans(tr, n) and negtrans_r == (_transitive_witness(comp, n) is None),
        rows,
    )

    # negative transitivity upgrades to transitivity under mild shape
    tallies.record(
        "negative-transitivity-upgrades",
        (not (refl_r and antisym_r and negtrans_r) or trans_r)
        and (not (asym_r and negtrans_r) or trans_r),
        rows,
    )
    tallies.record(
        "asymmetry-reflexivity-links",
        (not asym_r or irrefl_r)
        and (not (irrefl_r and trans_r) or asym_r)
        and (not complete_r or refl_r)
        and (not (trans_r and complete_r) or negtrans_r),
        rows,
    )
    tallies.record(
        "strict-order-two-faces",
        (asym_r and trans_r) == (irrefl_r and trans_r),
        rows,
    )

    i_rows = tuple(a & b for a, b in zip(rows, tr))
    p_rows = tuple(a & ~b for a, b in zip(rows, tr))
    u_rows = tuple(a | b for a, b in zip(rows, tr))
    e_rows = complement_rows(u_rows, n)
    p_tr = transpose_rows(p_rows, n)

    tallies.record(
        "derived-part-identities",
        complement_rows(i_rows, n) == tuple(a | b for a, b in zip(comp, comp_tr))
        and tuple(a & b for a, b in zip(comp, comp_tr)) == e_rows
        and complement_rows(p_rows, n) == tuple(a | b for a, b in zip(comp, tr))
        and tuple(~(a | b) & full for a, b in zip(p_rows, p_tr))
        == tuple(a | b for a, b in zip(e_rows, i_rows)),
        rows,
    )
    tallies.record(
        "derived-part-shapes",
        _symmetric_witness(i_rows, transpose_rows(i_rows, n), n) is None
        and _symmetric_witness(u_rows, transpose_rows(u_rows, n), n) is None
        and _symmetric_witness(e_rows, transpose_rows(e_rows, n), n) is None
        and _asymmetric_witness(p_rows, p_tr, n) is None
        and (
            not trans_r
            or (_transitive_witness(i_rows, n) is None and _transitive_witness(p_rows, n) is None)
        ),
        rows,
    )
    tallies.record(
        "incomparability-inherits-transitivity",
        not negtrans_r or _transitive_witness(e_rows, n) is None,
        rows,
    )

    if refl_r and trans_r:
        preorder_battery(rows, tr, i_rows, p_rows, e_rows, n, full, tallies, faults)
    if asym_r and negtrans_r:
        strict_battery(rows, tr, e_rows, n, full, tallies, faults)


def preorder_battery(rows, tr, i_rows, p_rows, e_rows, n, full, tallies, faults=frozenset()):
    negtrans = _NEGATIVELY_TRANSITIVE["negative-transitivity" in faults]
    saturated = _SATURATED["saturation" in faults]
    p_tr = transpose_rows(p_rows, n)
    tallies.record("preorder-strict-absorption", _saturated(p_rows, rows, n), rows)
    tallies.record("strict-part-saturated", saturated(p_rows, i_rows, n), rows)
    tallies.record("preorder-saturated-for-its-equivalence", saturated(rows, i_rows, n), rows)
    tallies.record(
        "preorder-parts-disjoint",
        all(
            i_rows[k] & p_rows[k] == 0
            and i_rows[k] & p_tr[k] == 0
            and p_rows[k] & p_tr[k] == 0
            for k in range(n)
        ),
        rows,
    )
    # completeness characterized through the complement of the inverse
    f_rows = complement_rows(tr, n)
    f_tr = complement_rows(rows, n)
    e_of_f = tuple(~(a | b) & full for a, b in zip(f_rows, f_tr))
    complete_r = _complete_witness(rows, tr, n) is None
    side_two = _asymmetric_witness(f_rows, f_tr, n) is None and negtrans(f_rows, n)
    side_three = i_rows == e_of_f and p_rows == f_rows
    tallies.record(
        "completeness-three-faces",
        complete_r == side_two == side_three,
        rows,
    )


def strict_battery(rows, tr, e_rows, n, full, tallies, faults=frozenset()):
    """Consequences for an asymmetric, negatively transitive relation: its
    incomparability is an equivalence, the union is transitive and the
    relation is saturated for the incomparability."""
    saturated = _SATURATED["saturation" in faults]
    script = tuple(a | b for a, b in zip(e_rows, rows))
    tallies.record(
        "incomparability-equivalence",
        _reflexive_witness(e_rows, n) is None
        and _symmetric_witness(e_rows, transpose_rows(e_rows, n), n) is None
        and _transitive_witness(e_rows, n) is None,
        rows,
    )
    tallies.record("incomparability-union-transitive", _transitive_witness(script, n) is None, rows)
    tallies.record("strict-saturated-for-incomparability", saturated(rows, e_rows, n), rows)


def pair_battery(e_rows, f_rows, n, tallies, faults=frozenset()):
    """Joining an equivalence with a disjoint relation: reflexivity is
    free, transitivity and saturation trade places, and completeness
    matches relative completeness."""
    saturated = _SATURATED["saturation" in faults]
    full = (1 << n) - 1
    r_rows = tuple(a | b for a, b in zip(e_rows, f_rows))
    f_tr = transpose_rows(f_rows, n)
    trans_r = _transitive_witness(r_rows, n) is None
    f_sat_e = saturated(f_rows, e_rows, n)
    tallies.record("join-reflexive", _reflexive_witness(r_rows, n) is None, (e_rows, f_rows))
    tallies.record("join-transitive-saturates", not trans_r or f_sat_e, (e_rows, f_rows))
    tallies.record(
        "saturated-strict-saturates-join",
        not f_sat_e or saturated(r_rows, e_rows, n),
        (e_rows, f_rows),
    )
    tallies.record(
        "join-completeness-relative",
        (_complete_witness(r_rows, transpose_rows(r_rows, n), n) is None)
        == all(f_rows[i] | f_tr[i] == (full & ~e_rows[i]) for i in range(n)),
        (e_rows, f_rows),
    )
    if _transitive_witness(f_rows, n) is None:
        f_sat_r = saturated(f_rows, r_rows, n)
        agree = f_sat_r == trans_r == f_sat_e
        tallies.record("saturation-transitivity-equivalence", agree, (e_rows, f_rows))
        partitions = all(
            e_rows[i] & f_rows[i] == 0
            and e_rows[i] & f_tr[i] == 0
            and f_rows[i] & f_tr[i] == 0
            and e_rows[i] | f_rows[i] | f_tr[i] == full
            for i in range(n)
        )
        tallies.record(
            "partition-forces-saturation",
            not partitions or (f_sat_r and trans_r and f_sat_e),
            (e_rows, f_rows),
        )


# ---------------------------------------------------------------------------
# sweep assembly

def exhaustive_logic_sweep(n: int, tallies: SweepTallies, faults=frozenset()):
    for rows in all_rows(n):
        relation_battery(rows, n, tallies, faults)
    for e_rows, f_rows in equivalence_free_pairs(n):
        pair_battery(e_rows, f_rows, n, tallies, faults)


def random_logic_sweep(total: int, sizes: Iterable[int], seed: int, tallies: SweepTallies):
    rnd = random.Random(seed)
    sizes = tuple(sizes)
    for _ in range(total):
        n = rnd.choice(sizes)
        rows = random_rows(rnd, n)
        relation_battery(rows, n, tallies)
        preorder = random_preorder_rows(rnd, n)
        relation_battery(preorder, n, tallies)
        e_rows = random_equivalence_rows(rnd, n)
        f_rows = tuple(r & ~e for r, e in zip(random_rows(rnd, n), e_rows))
        pair_battery(e_rows, f_rows, n, tallies)


def decomposition_sweep(n: int, tallies: SweepTallies):
    """Round-trip every preorder of the carrier through bubbles, or through
    the linear factor when the strict part is not negatively transitive."""
    from .errors import NotNegativelyTransitive

    for relation in enumerate_preorders(n):
        try:
            system = bubble_decompose(relation)
        except NotNegativelyTransitive as exc:
            witness = exc.witness
            strict_ok = _witness_violates(relation, witness)
            factored = bourbaki_factor(relation)
            tallies.record("fallback-linear-factor", factored.order.n >= 1, relation.rows)
            tallies.record("refusal-witness-valid", strict_ok, relation.rows)
            continue
        rebuilt = bubble_compose(system)
        tallies.record("decomposition-round-trip", rebuilt.rows == relation.rows, relation.rows)


def _witness_violates(relation: Relation, witness: tuple[str, ...]) -> bool:
    from .relations import derived_parts

    if len(witness) != 3:
        return False
    x, y, z = witness
    strict = derived_parts(relation).asymmetric_part
    return strict.has(x, z) and not strict.has(x, y) and not strict.has(y, z)


def extension_sweep(n: int, tallies: SweepTallies):
    for rows in all_partial_order_rows(n):
        carrier = Carrier(tuple(f"e{i}" for i in range(n)))
        relation = Relation(carrier, rows)
        order = szpilrajn_extend(relation)
        extended = order.relation()
        grows = all(a | b == a for a, b in zip(extended.rows, rows))
        tallies.record("extension-contains-input", grows, rows)
        linear_input = _complete_witness(rows, transpose_rows(rows, n), n) is None
        if linear_input:
            tallies.record("linear-fixed-point", extended.rows == rows, rows)


def system_roundtrip_sweep(count: int, seed: int, tallies: SweepTallies):
    rnd = random.Random(seed)
    for _ in range(count):
        system = random_bubble_system(rnd)
        relation = bubble_compose(system)
        again = bubble_decompose(relation)
        tallies.record("system-round-trip", again.same_shape(system), None)


def run_sweep(n: int, seed: int = DEFAULT_SEED, faults: Iterable[str] = ()) -> dict:
    """The full exhaustive suite for carrier size n (n <= 4)."""
    faults = frozenset(faults)
    unknown = faults - set(KNOWN_FAULTS)
    if unknown:
        raise ValidationError(f"unknown fault(s): {sorted(unknown)}")
    if not 1 <= n <= 4:
        from .errors import TooLarge

        raise TooLarge(
            f"exhaustive sweep supports 1 <= n <= 4, got {n}; "
            "use the randomized battery for larger carriers"
        )
    tallies = SweepTallies()
    exhaustive_logic_sweep(n, tallies, faults)
    filter_count = sum(1 for _ in enumerate_preorders(n))
    pair_count = count_split_pairs(n)
    tallies.record("preorder-counts-agree", filter_count == pair_count, (filter_count, pair_count))
    decomposition_sweep(n, tallies)
    extension_sweep(n, tallies)
    system_roundtrip_sweep(50, seed, tallies)
    return {
        "n": n,
        "seed": seed,
        "faults": sorted(faults),
        "preorder_count_filter": filter_count,
        "preorder_count_pairs": pair_count,
        "checks": tallies.as_dict(),
        "failures_total": tallies.failures_total(),
    }
