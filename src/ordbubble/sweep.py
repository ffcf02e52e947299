"""Exhaustive and randomized invariant sweeps over small carriers.

The battery evaluates the package's logical identities on every relation of
a small carrier (or a seeded random sample of larger ones), counts
preorders two independent ways, and round-trips decompositions and linear
extensions.  Each check carries a neutral name; a sweep with any failure is
a build-breaking event for the CLI.

The battery checks each identity on all relations at once, as a truth
table: an int with one bit per relation.  In a table matrix T, bit k of
``T[i][j]`` says whether relation k holds (i, j).  The exhaustive sweep
numbers relations in ``all_rows`` order, the pair battery the relations on
the cells one equivalence leaves free, and the random sweep the samples of
each size in sampling order.  Negation also sets the bits above the last
relation; they mean nothing, since a tally reads a table only under a
hypothesis masked to the relations.  The tables are a verification
encoding private to this module, not a second kernel layer.

Fault injection (``faults={"saturation"}`` etc.) deliberately corrupts one
predicate so harness wiring can be tested end to end: a corrupted check
must surface as a reported failure.  An injected fault flips every bit of
the negative-transitivity or saturation table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, pairwise, product
from operator import and_, inv, or_
from typing import Callable, Iterable, Iterator

from .errors import NotNegativelyTransitive, TooLarge, ValidationError
from .relations import (
    Carrier,
    Relation,
    _complete_witness,
    _transitive_witness,
    closure_rows,
    derived_parts,
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


@dataclass
class SweepTallies:
    checks: dict[str, CheckTally] = field(default_factory=dict)

    def record(self, name: str, hypothesis: int, holds: int, witness: Callable[[int], tuple]):
        """Tally a table of instances: bit k of ``hypothesis`` marks
        instance k, and of ``holds`` that it passes; ``witness(k)`` names
        it.  The first failure is the lowest failing bit."""
        if not hypothesis:
            return
        tally = self.checks.setdefault(name, CheckTally())
        bad = hypothesis & ~holds
        tally.instances += hypothesis.bit_count()
        tally.failures += bad.bit_count()
        if bad and tally.first_failure is None:
            tally.first_failure = witness((bad & -bad).bit_length() - 1)

    def record_one(self, name: str, ok: bool, witness):
        """Tally a single instance, as a 1-bit table."""
        self.record(name, 1, ok, lambda _: witness)

    def failures_total(self) -> int:
        return sum(t.failures for t in self.checks.values())

    def as_dict(self) -> dict:
        return {
            name: {"instances": tally.instances, "failures": tally.failures}
            for name, tally in sorted(self.checks.items())
        }


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
    total = 0
    for _, E, F, full in _equivalence_tables(n):
        total += (_asymmetric(F) & _transitive(F) & _saturated(F, E) & full).bit_count()
    return total


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
# truth tables

def _variables(cells: list[tuple[int, int]], n: int) -> tuple[list[list[int]], int]:
    """Every relation on ``cells``: bit b of relation k's number decides cells[b]."""
    full = (1 << (1 << len(cells))) - 1
    T = [[0] * n for _ in range(n)]
    for b, (i, j) in enumerate(cells):
        w = 1 << b
        T[i][j] = (((1 << w) - 1) << w) * (full // ((1 << 2 * w) - 1))
    return T, full


def _equivalence_tables(n: int) -> Iterator[tuple]:
    """Each equivalence, as constant tables, with every relation on the
    cells it leaves free, taken row-major."""
    for e_rows in all_equivalence_rows(n):
        held = [[e_rows[i] >> j & 1 for j in range(n)] for i in range(n)]
        F, full = _variables([(i, j) for i in range(n) for j in range(n) if not held[i][j]], n)
        yield e_rows, [[full * bit for bit in row] for row in held], F, full


def _pack(samples: list[tuple[int, ...]], n: int) -> tuple[list[list[int]], int]:
    """Row tuples as a table matrix, sample k at bit k."""
    T = []
    for i in range(n):
        # row i's binary digits, last sample first: column n-1-j is pair (i, j)
        digits = zip(*(format(rows[i], f"0{n}b") for rows in reversed(samples)))
        T.append([int("".join(column), 2) for column in digits][::-1])
    return T, (1 << len(samples)) - 1


def _every(tables: Iterable[int]) -> int:
    return reduce(and_, tables, -1)


def _inverse(T):
    return [list(col) for col in zip(*T)]


def _cellwise(op, *matrices):
    return [list(map(op, *rows)) for rows in zip(*matrices)]


_complement = partial(_cellwise, inv)
_meet = partial(_cellwise, and_)
_join = partial(_cellwise, or_)


def _agree(*tables: int) -> int:
    """The relations on which all the tables agree."""
    return _every(~(a ^ b) for a, b in pairwise(tables))


def _same(A, B) -> int:
    return _every(~(a ^ b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _reflexive(T) -> int:
    return _every(row[i] for i, row in enumerate(T))


def _irreflexive(T) -> int:
    return _every(~row[i] for i, row in enumerate(T))


def _symmetric(T) -> int:
    return _same(T, _inverse(T))


def _antisymmetric(T) -> int:
    both = _meet(T, _inverse(T))
    return _every(~t for i, row in enumerate(both) for j, t in enumerate(row) if i != j)


def _asymmetric(T) -> int:
    return _every(~t for t in chain(*_meet(T, _inverse(T))))


def _complete(T) -> int:
    return _every(chain(*_join(T, _inverse(T))))


def _inside(A, B, C) -> int:
    """The relations on which the composite A.B lies inside C."""
    bad = 0
    for x, y, z in product(range(len(A)), repeat=3):
        bad |= A[x][y] & B[y][z] & ~C[x][z]
    return ~bad


def _transitive(T) -> int:
    return _inside(T, T, T)


def _negatively_transitive(T) -> int:
    """xRz implies xRy or yRz: the complement is transitive."""
    return _transitive(_complement(T))


def _saturated(s, e) -> int:
    """Full saturation of s for e: e.s and s.e both land inside s."""
    return _inside(e, s, s) & _inside(s, e, s)


# ---------------------------------------------------------------------------
# the battery

def relation_battery(T, full: int, tallies: SweepTallies, witness, faults=frozenset()):
    """Identities that hold for every relation, plus the preorder and
    strict-order consequences where their hypotheses hold, on the table
    matrix T of the relations in ``full``; ``witness(k)`` names relation k."""
    nt_flip = full if "negative-transitivity" in faults else 0
    sat_flip = full if "saturation" in faults else 0

    def negtrans(m):
        return _negatively_transitive(m) ^ nt_flip

    def check(name, holds, hypothesis=full):
        tallies.record(name, hypothesis & full, holds, witness)

    tr = _inverse(T)
    comp = _complement(T)
    comp_tr = _inverse(comp)
    asym = _asymmetric(T)
    refl = _reflexive(T)
    irrefl = _irreflexive(T)
    complete = _complete(T)
    trans = _transitive(T)
    nt = negtrans(T)

    # symmetry/asymmetry/transitivity transfer to the inverse and complement
    check("inverse-complement-symmetry", _agree(_symmetric(T), _symmetric(tr), _symmetric(comp)))
    asym_faces = _agree(asym, _asymmetric(tr), _complete(comp))
    check("inverse-asymmetry-complement-completeness", asym_faces)
    check("transitivity-inverse-and-complement", _agree(trans, _transitive(tr), negtrans(comp)))
    nt_faces = _agree(nt, negtrans(tr), _transitive(comp))
    check("negative-transitivity-inverse-and-complement", nt_faces)

    # negative transitivity upgrades to transitivity under mild shape
    antisym = _antisymmetric(T)
    check("negative-transitivity-upgrades", ~((refl & antisym & nt) | (asym & nt)) | trans)
    links = (~asym | irrefl) & (~(irrefl & trans) | asym) & (~complete | refl)
    check("asymmetry-reflexivity-links", links & (~(trans & complete) | nt))
    check("strict-order-two-faces", _agree(asym & trans, irrefl & trans))

    i_t = _meet(T, tr)
    p_t = _meet(T, comp_tr)
    u_t = _join(T, tr)
    e_t = _complement(u_t)
    p_tr = _inverse(p_t)
    identities = _same(_complement(i_t), _join(comp, comp_tr)) & _same(_meet(comp, comp_tr), e_t)
    identities &= _same(_complement(p_t), _join(comp, tr))
    identities &= _same(_complement(_join(p_t, p_tr)), _join(e_t, i_t))
    check("derived-part-identities", identities)
    shapes = _symmetric(i_t) & _symmetric(u_t) & _symmetric(e_t) & _asymmetric(p_t)
    check("derived-part-shapes", shapes & (~trans | (_transitive(i_t) & _transitive(p_t))))
    check("incomparability-inherits-transitivity", ~nt | _transitive(e_t))

    # preorders: saturated parts, disjoint parts, and completeness
    # characterized through the complement of the inverse
    preorder = refl & trans
    check("preorder-strict-absorption", _saturated(p_t, T), preorder)
    check("strict-part-saturated", _saturated(p_t, i_t) ^ sat_flip, preorder)
    check("preorder-saturated-for-its-equivalence", _saturated(T, i_t) ^ sat_flip, preorder)
    overlaps = _join(_join(_meet(i_t, p_t), _meet(i_t, p_tr)), _meet(p_t, p_tr))
    check("preorder-parts-disjoint", _every(~t for t in chain(*overlaps)), preorder)
    side_two = _asymmetric(comp_tr) & negtrans(comp_tr)
    side_three = _same(i_t, _complement(_join(comp_tr, comp))) & _same(p_t, comp_tr)
    check("completeness-three-faces", _agree(complete, side_two, side_three), preorder)

    # asymmetric, negatively transitive relations: the incomparability is an
    # equivalence, the union is transitive and the relation saturated for it
    weak = asym & nt
    check("incomparability-equivalence", _reflexive(e_t) & _symmetric(e_t) & _transitive(e_t), weak)
    check("incomparability-union-transitive", _transitive(_join(e_t, T)), weak)
    check("strict-saturated-for-incomparability", _saturated(T, e_t) ^ sat_flip, weak)


def pair_battery(E, F, full: int, tallies: SweepTallies, witness, faults=frozenset()):
    """Joining an equivalence E with a disjoint relation F: reflexivity is
    free, transitivity and saturation trade places, and completeness matches
    relative completeness.  ``witness(k)`` names pair k of ``full``."""
    sat_flip = full if "saturation" in faults else 0

    def check(name, holds, hypothesis=full):
        tallies.record(name, hypothesis & full, holds, witness)

    R = _join(E, F)
    f_tr = _inverse(F)
    trans_r = _transitive(R)
    f_sat_e = _saturated(F, E) ^ sat_flip
    check("join-reflexive", _reflexive(R))
    check("join-transitive-saturates", ~trans_r | f_sat_e)
    check("saturated-strict-saturates-join", ~f_sat_e | (_saturated(R, E) ^ sat_flip))
    check("join-completeness-relative", _agree(_complete(R), _same(_join(F, f_tr), _complement(E))))
    transitive_f = _transitive(F)
    f_sat_r = _saturated(F, R) ^ sat_flip
    check("saturation-transitivity-equivalence", _agree(f_sat_r, trans_r, f_sat_e), transitive_f)
    overlaps = _join(_join(_meet(E, F), _meet(E, f_tr)), _meet(F, f_tr))
    partitions = _every(~t for t in chain(*overlaps)) & _every(chain(*_join(R, f_tr)))
    check("partition-forces-saturation", ~partitions | (f_sat_r & trans_r & f_sat_e), transitive_f)


# ---------------------------------------------------------------------------
# sweep assembly

def exhaustive_logic_sweep(n: int, tallies: SweepTallies, faults=frozenset()):
    def rows_of(T, k):
        return tuple(sum((t >> k & 1) << j for j, t in enumerate(row)) for row in T)

    T, full = _variables([(i, j) for i in reversed(range(n)) for j in reversed(range(n))], n)
    relation_battery(T, full, tallies, lambda k: rows_of(T, k), faults)
    for e_rows, E, F, full in _equivalence_tables(n):
        pair_battery(E, F, full, tallies, lambda k: (e_rows, rows_of(F, k)), faults)


def random_logic_sweep(total: int, sizes: Iterable[int], seed: int, tallies: SweepTallies):
    """Seeded random relations, preorders and (equivalence, disjoint
    relation) pairs, one table matrix per size; a check's first failure is
    its earliest failing sample."""
    rnd = random.Random(seed)
    sizes = tuple(sizes)
    drawn = {}
    for t in range(total):
        n = rnd.choice(sizes)
        relations, pairs = drawn.setdefault(n, ([], []))
        relations += [(2 * t, random_rows(rnd, n)), (2 * t + 1, random_preorder_rows(rnd, n))]
        e_rows = random_equivalence_rows(rnd, n)
        pairs.append((t, (e_rows, tuple(r & ~e for r, e in zip(random_rows(rnd, n), e_rows)))))
    # each size's witnesses carry the sample's place in the draw
    parts = []
    for n, (relations, pairs) in drawn.items():
        parts.append(part := SweepTallies())
        T, full = _pack([rows for _, rows in relations], n)
        relation_battery(T, full, part, relations.__getitem__)
        E, full = _pack([e_rows for _, (e_rows, _) in pairs], n)
        F, _ = _pack([f_rows for _, (_, f_rows) in pairs], n)
        pair_battery(E, F, full, part, pairs.__getitem__)
    for name in sorted({name for part in parts for name in part.checks}):
        found = [part.checks[name] for part in parts if name in part.checks]
        tally = tallies.checks.setdefault(name, CheckTally())
        tally.instances += sum(f.instances for f in found)
        tally.failures += sum(f.failures for f in found)
        firsts = [f.first_failure for f in found if f.first_failure is not None]
        if firsts and tally.first_failure is None:
            tally.first_failure = min(firsts)[1]


def decomposition_sweep(preorders: Iterable[Relation], tallies: SweepTallies):
    """Round-trip every preorder given through bubbles, or through the
    linear factor when the strict part is not negatively transitive."""
    for relation in preorders:
        try:
            system = bubble_decompose(relation)
        except NotNegativelyTransitive as exc:
            witness = exc.witness
            strict_ok = _witness_violates(relation, witness)
            factored = bourbaki_factor(relation)
            tallies.record_one("fallback-linear-factor", factored.order.n >= 1, relation.rows)
            tallies.record_one("refusal-witness-valid", strict_ok, relation.rows)
            continue
        rebuilt = bubble_compose(system)
        tallies.record_one("decomposition-round-trip", rebuilt.rows == relation.rows, relation.rows)


def _witness_violates(relation: Relation, witness: tuple[str, ...]) -> bool:
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
        tallies.record_one("extension-contains-input", grows, rows)
        linear_input = _complete_witness(rows, transpose_rows(rows, n), n) is None
        if linear_input:
            tallies.record_one("linear-fixed-point", extended.rows == rows, rows)


def system_roundtrip_sweep(count: int, seed: int, tallies: SweepTallies):
    rnd = random.Random(seed)
    for _ in range(count):
        system = random_bubble_system(rnd)
        relation = bubble_compose(system)
        again = bubble_decompose(relation)
        tallies.record_one("system-round-trip", again.same_shape(system), None)


def run_sweep(n: int, seed: int = DEFAULT_SEED, faults: Iterable[str] = ()) -> dict:
    """The full exhaustive suite for carrier size n (n <= 4)."""
    faults = frozenset(faults)
    unknown = faults - set(KNOWN_FAULTS)
    if unknown:
        raise ValidationError(f"unknown fault(s): {sorted(unknown)}")
    if not 1 <= n <= 4:
        raise TooLarge(
            f"exhaustive sweep supports 1 <= n <= 4, got {n}; "
            "use the randomized battery for larger carriers"
        )
    tallies = SweepTallies()
    exhaustive_logic_sweep(n, tallies, faults)
    preorders = list(enumerate_preorders(n))
    filter_count = len(preorders)
    pair_count = count_split_pairs(n)
    counts = (filter_count, pair_count)
    tallies.record_one("preorder-counts-agree", filter_count == pair_count, counts)
    decomposition_sweep(preorders, tallies)
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
