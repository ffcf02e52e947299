"""Independent brute-force oracles for the test suite.

Everything here quantifies explicitly over element labels with plain
loops, deliberately avoiding the package's bitmask kernels, so the two
routes can disagree when one of them is wrong.  The exceptions are the
five sections at the end, each an earlier implementation kept as the
reference for its replacement: the enumerated topology queries for the
neighbourhood model, the label-set projection check for its mask version,
the bit-probe scans for the witness kernels, the label-level loops of the
bubble pipeline for its row-mask versions, and the per-relation sweep
batteries for the truth-table battery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from ordbubble import Carrier, EquivalenceRelation, Relation, classes, derived_parts, make_relation
from ordbubble.errors import NotNegativelyTransitive, NotOpen, TooLarge, UnknownLabel, ValidationError
from ordbubble.relations import (
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
    transpose_rows,
)
from ordbubble.structure import (
    Bubble,
    BubbleSystem,
    Loset,
    bubble_compose,
    bubble_decompose,
    enumerate_preorders,
)
from ordbubble.sweep import (
    SweepTallies,
    all_equivalence_rows,
    random_equivalence_rows,
    random_preorder_rows,
    random_rows,
)
from ordbubble.topology import (
    CheckOutcome,
    ConnectivityReport,
    FiniteTopology,
    ProjectionReport,
    _least,
    _minimal_opens,
    connectivity_report,
    generate_topology,
    is_base,
    open_intervals,
)


# ---------------------------------------------------------------------------
# naive predicates

def naive_reflexive(r: Relation) -> bool:
    return all(r.has(x, x) for x in r.carrier.elements)


def naive_irreflexive(r: Relation) -> bool:
    return not any(r.has(x, x) for x in r.carrier.elements)


def naive_symmetric(r: Relation) -> bool:
    e = r.carrier.elements
    return all(not r.has(x, y) or r.has(y, x) for x in e for y in e)


def naive_antisymmetric(r: Relation) -> bool:
    e = r.carrier.elements
    return all(not (r.has(x, y) and r.has(y, x)) or x == y for x in e for y in e)


def naive_asymmetric(r: Relation) -> bool:
    e = r.carrier.elements
    return all(not (r.has(x, y) and r.has(y, x)) for x in e for y in e)


def naive_complete(r: Relation) -> bool:
    e = r.carrier.elements
    return all(r.has(x, y) or r.has(y, x) for x in e for y in e)


def naive_transitive(r: Relation) -> bool:
    e = r.carrier.elements
    return all(
        not (r.has(x, y) and r.has(y, z)) or r.has(x, z)
        for x in e for y in e for z in e
    )


def naive_negatively_transitive(r: Relation) -> bool:
    e = r.carrier.elements
    return all(
        not r.has(x, z) or r.has(x, y) or r.has(y, z)
        for x in e for y in e for z in e
    )


def naive_saturated(s: Relation, e: Relation, mode: str) -> bool:
    elems = s.carrier.elements
    if mode == "left":
        return all(
            not (e.has(x, y) and s.has(y, z)) or s.has(x, z)
            for x in elems for y in elems for z in elems
        )
    if mode == "right":
        return all(
            not (s.has(x, y) and e.has(y, z)) or s.has(x, z)
            for x in elems for y in elems for z in elems
        )
    if mode == "full":
        return naive_saturated(s, e, "left") and naive_saturated(s, e, "right")
    if mode == "weak":
        return all(
            not (e.has(x, y) and s.has(y, z))
            or any(e.has(z, t) and s.has(x, t) for t in elems)
            for x in elems for y in elems for z in elems
        )
    raise ValueError(mode)


def path_closure(r: Relation) -> Relation:
    """Closure by explicit path enumeration: (x, y) is in when some chain
    of 1..n steps links them."""
    elems = r.carrier.elements
    n = len(elems)
    pairs = []
    for x in elems:
        for y in elems:
            found = False
            for length in range(1, n + 1):
                for interior in product(elems, repeat=length - 1):
                    chain = (x, *interior, y)
                    if all(r.has(chain[i], chain[i + 1]) for i in range(length)):
                        found = True
                        break
                if found:
                    break
            if found:
                pairs.append((x, y))
    return make_relation(r.carrier, pairs)


# ---------------------------------------------------------------------------
# enumerators

def all_relations_on(labels: tuple[str, ...]):
    carrier = Carrier(labels)
    n = len(labels)
    cells = [(x, y) for x in labels for y in labels]
    for code in range(1 << (n * n)):
        yield make_relation(carrier, [cells[k] for k in range(n * n) if code >> k & 1])


def all_preorders_on(labels: tuple[str, ...]):
    for r in all_relations_on(labels):
        if naive_reflexive(r) and naive_transitive(r):
            yield r


def all_partial_orders_on(labels: tuple[str, ...]):
    """Reflexive + antisymmetric by construction, filtered for
    transitivity; tractable through n = 5."""
    carrier = Carrier(labels)
    n = len(labels)
    unordered = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    for states in product((0, 1, 2), repeat=len(unordered)):
        pairs = [(x, x) for x in labels]
        for (x, y), s in zip(unordered, states):
            if s == 1:
                pairs.append((x, y))
            elif s == 2:
                pairs.append((y, x))
        r = make_relation(carrier, pairs)
        if naive_transitive(r):
            yield r


def set_partitions(items: tuple):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for k in range(len(sub)):
            yield sub[:k] + ((first,) + sub[k],) + sub[k + 1 :]


def all_equivalences_on(labels: tuple[str, ...]):
    carrier = Carrier(labels)
    for blocks in set_partitions(labels):
        pairs = [(x, y) for block in blocks for x in block for y in block]
        yield EquivalenceRelation(make_relation(carrier, pairs))


def ordered_set_partitions(items: tuple):
    if not items:
        yield ()
        return
    n = len(items)
    for mask in range(1, 1 << n):
        block = tuple(items[i] for i in range(n) if mask >> i & 1)
        rest = tuple(items[i] for i in range(n) if not mask >> i & 1)
        for tail in ordered_set_partitions(rest):
            yield (block,) + tail


def all_bubble_systems_on(labels: tuple[str, ...]):
    """Every bubble system over the fixed carrier: an ordered sequence of
    disjoint bubbles, each with any inner equivalence."""
    carrier = Carrier(labels)
    for sequence in ordered_set_partitions(labels):
        inner_choices = [list(set_partitions(block)) for block in sequence]
        for combo in product(*inner_choices):
            bubbles = []
            projection = {}
            for b, (block, blocks_of_inner) in enumerate(zip(sequence, combo)):
                sub = Carrier(block)
                pairs = [(x, y) for cls in blocks_of_inner for x in cls for y in cls]
                inner = EquivalenceRelation(make_relation(sub, pairs))
                bubbles.append(Bubble(block, inner))
                projection.update({x: f"I{b}" for x in block})
            index = Loset.chain(tuple(f"I{b}" for b in range(len(sequence))))
            yield BubbleSystem(
                carrier=carrier,
                index=index,
                bubbles=tuple(bubbles),
                projection=projection,
            )


# ---------------------------------------------------------------------------
# fixtures

def truncated_reciprocal_instance(n: int):
    """A finite cut of the reciprocal chain 0 < ... < 1/2 < 1/1 with three
    isolated extra elements; returns (relation, expected gap list)."""
    labels = ["0"] + [f"1/{i}" for i in range(n, 0, -1)] + ["r1", "r2", "r3"]
    carrier = Carrier(tuple(labels))
    pairs = [(x, x) for x in labels]
    pairs += [(f"1/{i}", f"1/{j}") for i in range(1, n + 1) for j in range(1, i)]
    pairs += [("0", f"1/{i}") for i in range(1, n + 1)]
    relation = make_relation(carrier, pairs)
    expected_gaps = [("0", f"1/{n}")] + [
        (f"1/{j+1}", f"1/{j}") for j in range(n - 1, 0, -1)
    ]
    return relation, expected_gaps


def decomposable_preorders():
    """Every bubble-decomposable preorder with n <= 4."""
    for n in range(1, 5):
        for r in enumerate_preorders(n):
            try:
                bubble_decompose(r)
            except NotNegativelyTransitive:
                continue
            yield r


def shuffled_bubble_system(rnd: random.Random, n: int) -> BubbleSystem:
    """Bubbles of 1-4 elements at shuffled carrier positions, inner classes
    at random, and index labels whose rank order is not their carrier order."""
    labels = [f"x{i}" for i in range(n)]
    rnd.shuffle(labels)
    blocks = []
    while labels:
        size = rnd.randint(1, min(4, len(labels)))
        blocks.append(labels[:size])
        labels = labels[size:]
    carrier = Carrier(tuple(f"x{i}" for i in range(n)))
    index_labels = [f"I{b}" for b in range(len(blocks))]
    ranks = list(range(len(blocks)))
    rnd.shuffle(ranks)
    index = Loset(Carrier(tuple(index_labels)), tuple(ranks))
    bubbles, projection = [], {}
    for label in index.sorted_labels():
        block = tuple(sorted(blocks[index_labels.index(label)], key=carrier.position))
        tags = {x: rnd.randrange(len(block)) for x in block}
        pairs = [(x, y) for x in block for y in block if tags[x] == tags[y]]
        bubbles.append(Bubble(block, EquivalenceRelation(make_relation(Carrier(block), pairs))))
        projection.update({x: label for x in block})
    return BubbleSystem(carrier=carrier, index=index, bubbles=tuple(bubbles), projection=projection)


def sparse_poset(rnd: random.Random, n: int) -> Relation:
    """A partial order on x0..x{n-1}: each pair of a shuffled chain is an
    edge with probability 2/n, then the reflexive-transitive closure."""
    perm = list(range(n))
    rnd.shuffle(perm)
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < 2 / n:
                rows[perm[i]] |= 1 << perm[j]
    return Relation(Carrier(tuple(f"x{i}" for i in range(n))), closure_rows(tuple(rows), n))


def seeded_systems(count=200, max_n=64, seed=5):
    rnd = random.Random(seed)
    for _ in range(count):
        yield shuffled_bubble_system(rnd, rnd.randint(1, max_n))


def naive_generated_opens(carrier: Carrier, extents) -> set[frozenset]:
    """Reference topology generation: pairwise intersection fixpoint, then
    pairwise union fixpoint, plus the empty set and the carrier."""
    family = {frozenset(e) for e in extents}
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                c = a & b
                if c not in family:
                    family.add(c)
                    changed = True
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                c = a | b
                if c not in family:
                    family.add(c)
                    changed = True
    family.add(frozenset())
    family.add(frozenset(carrier.elements))
    return family


# ---------------------------------------------------------------------------
# enumerated topologies
#
# The earlier implementation of the topology queries, which stored a
# finite topology as its whole family of open sets and answered every
# query by walking that family.  It is the reference the neighbourhood
# model is checked against.

_ENUMERATION_CAP = 16


@dataclass(frozen=True)
class EnumeratedTopology:
    """A carrier plus the full family of open sets as bitmasks."""

    carrier: Carrier
    opens: frozenset

    def __post_init__(self):
        full = (1 << self.carrier.n) - 1
        if 0 not in self.opens or full not in self.opens:
            raise ValidationError("a topology must contain the empty set and the carrier")
        for a in self.opens:
            if a & ~full:
                raise ValidationError("open set out of carrier range")
        if len(self.opens) <= 1024:
            members = tuple(self.opens)
            for a in members:
                for b in members:
                    if a & b not in self.opens or a | b not in self.opens:
                        raise ValidationError("open-set family not closed under union/intersection")

    def mask_of(self, labels) -> int:
        mask = 0
        for x in labels:
            mask |= 1 << self.carrier.position(x)
        return mask

    def labels_of(self, mask: int) -> tuple:
        return tuple(e for j, e in enumerate(self.carrier.elements) if mask >> j & 1)

    def is_open(self, labels) -> bool:
        return self.mask_of(labels) in self.opens

    def sorted_opens(self) -> list:
        return sorted((self.labels_of(m) for m in self.opens), key=lambda s: (len(s), s))


def enumerated_topology(carrier: Carrier, subbase) -> EnumeratedTopology:
    """All unions of finite intersections of subbase extents: close under
    pairwise intersection, then take the unions of the minimal
    neighbourhoods by a dynamic program over their subsets."""
    n = carrier.n
    if n > _ENUMERATION_CAP:
        raise TooLarge(f"topology generation capped at {_ENUMERATION_CAP} elements, got {n}")
    full = (1 << n) - 1
    base_masks = []
    for interval in subbase:
        mask = 0
        for x in interval.extent:
            mask |= 1 << carrier.position(x)
        if mask not in base_masks:
            base_masks.append(mask)
    family = set(base_masks)
    worklist = list(base_masks)
    while worklist:
        current = worklist.pop()
        for s in base_masks:
            joined = current & s
            if joined not in family:
                family.add(joined)
                worklist.append(joined)
    neighbourhood = {}
    for i in range(n):
        bit = 1 << i
        covering = [m for m in family if m & bit]
        if covering:
            acc = full
            for m in covering:
                acc &= m
            neighbourhood[i] = acc
    distinct = sorted(set(neighbourhood.values()))
    opens = {0, full}
    opens.update(family)
    k = len(distinct)
    union_of = [0] * (1 << k)
    for code in range(1, 1 << k):
        low = (code & -code).bit_length() - 1
        union_of[code] = union_of[code & (code - 1)] | distinct[low]
    opens.update(union_of)
    topology = EnumeratedTopology(carrier, frozenset(opens))
    for mask in base_masks:
        if mask not in topology.opens:
            raise ValidationError("subbase extent escaped its own topology")
    return topology


def enumerated_is_base(family, topology: EnumeratedTopology) -> CheckOutcome:
    masks = []
    for member in family:
        mask = topology.mask_of(member)
        if mask not in topology.opens:
            raise NotOpen("family member is not open", tuple(sorted(member)))
        masks.append(mask)
    for labels in topology.sorted_opens():
        target = topology.mask_of(labels)
        acc = 0
        for mask in masks:
            if mask & ~target == 0:
                acc |= mask
        if acc != target:
            return CheckOutcome(False, labels)
    return CheckOutcome(True)


def enumerated_connectivity(topology: EnumeratedTopology) -> ConnectivityReport:
    full = (1 << topology.carrier.n) - 1
    for labels in topology.sorted_opens():
        mask = topology.mask_of(labels)
        if mask in (0, full):
            continue
        if (full & ~mask) in topology.opens:
            return ConnectivityReport(False, labels)
    return ConnectivityReport(True)


def enumerated_continuity(mapping, source: EnumeratedTopology, target: EnumeratedTopology) -> CheckOutcome:
    for x in source.carrier.elements:
        if x not in mapping:
            raise ValidationError(f"map is not total: {x!r} has no image", (x,))
        if mapping[x] not in target.carrier:
            raise UnknownLabel(f"image {mapping[x]!r} not in target carrier", (x,))
    for labels in target.sorted_opens():
        members = set(labels)
        preimage = [x for x in source.carrier.elements if mapping[x] in members]
        if not source.is_open(preimage):
            return CheckOutcome(False, labels)
    return CheckOutcome(True)


def enumerated_is_open_map(mapping, source: EnumeratedTopology, target: EnumeratedTopology) -> bool:
    return all(
        target.mask_of(frozenset(mapping[x] for x in labels)) in target.opens
        for labels in source.sorted_opens()
    )


def enumerated_is_preimage_topology(mapping, source: EnumeratedTopology, target: EnumeratedTopology) -> bool:
    def pull_back(subset):
        return frozenset(x for x in source.carrier.elements if mapping[x] in subset)

    return source.opens == frozenset(
        source.mask_of(pull_back(frozenset(labels))) for labels in target.sorted_opens()
    )


def _enumerated_is_dense(topology: EnumeratedTopology, subset) -> bool:
    mask = topology.mask_of(subset)
    return all(mask & topology.mask_of(labels) for labels in topology.sorted_opens() if labels)


def enumerated_minimal_opens(topology: EnumeratedTopology) -> list:
    """The minimal nonempty opens, in listing order."""
    nonempty = [topology.mask_of(labels) for labels in topology.sorted_opens() if labels]
    return [m for m in nonempty if not any(other != m and other & ~m == 0 for other in nonempty)]


def enumerated_minimal_dense_subset(topology: EnumeratedTopology) -> set:
    picks = set()
    for mask in enumerated_minimal_opens(topology):
        least = (mask & -mask).bit_length() - 1
        picks.add(topology.carrier.elements[least])
    for label in sorted(picks, reverse=True):
        trimmed = picks - {label}
        if trimmed and _enumerated_is_dense(topology, trimmed):
            picks = trimmed
    return picks


def enumerated_projection_check(system: BubbleSystem) -> ProjectionReport:
    system.validate()
    relation = bubble_compose(system)
    projection = system.projection
    index_relation = system.index.relation()

    intervals_a = open_intervals(relation)
    intervals_i = open_intervals(index_relation)
    top_a = enumerated_topology(relation.carrier, intervals_a)
    top_i = enumerated_topology(index_relation.carrier, intervals_i)

    extents_a = {e for e in unique_extents(intervals_a) if e}
    extents_i = {e for e in unique_extents(intervals_i) if e}

    def project(subset):
        return frozenset(projection[x] for x in subset)

    def pull_back(subset):
        return frozenset(x for x in system.carrier.elements if projection[x] in subset)

    bijection = (
        {project(e) for e in extents_a} == extents_i
        and {pull_back(k) for k in extents_i} == extents_a
        and all(pull_back(project(e)) == e for e in extents_a)
        and all(project(pull_back(k)) == k for k in extents_i)
    )
    if system.index.n == 1:
        base = top_a.opens == frozenset({0, (1 << system.carrier.n) - 1})
    else:
        base = enumerated_is_base(sorted(extents_a, key=sorted), top_a).holds
    continuous = all(
        top_a.mask_of(pull_back(frozenset(labels))) in top_a.opens
        for labels in top_i.sorted_opens()
    )
    open_map = enumerated_is_open_map(projection, top_a, top_i)
    preimage_topology = enumerated_is_preimage_topology(projection, top_a, top_i)
    connected_match = (
        enumerated_connectivity(top_a).connected == enumerated_connectivity(top_i).connected
    )
    dense = enumerated_minimal_dense_subset(top_a)
    dense_image = _enumerated_is_dense(top_i, {projection[x] for x in dense})
    return ProjectionReport(
        extent_bijection=bijection,
        extents_form_base=base,
        continuous_and_open=continuous and open_map,
        preimage_topology=preimage_topology,
        connectedness_match=connected_match,
        dense_image=dense_image,
    )


# ---------------------------------------------------------------------------
# label-set projection check

# The earlier projection check, which lists every open interval with a
# label-set extent, generates the topology from all of them and decides
# each fact on label sets, kept as the reference for the mask version.
# ``generate_topology(r.carrier, open_intervals(r))`` is the earlier
# ``interval_topology(r)``.

def unique_extents(intervals) -> list[frozenset[str]]:
    """Distinct interval extents in first-seen order."""
    seen: list[frozenset[str]] = []
    for interval in intervals:
        if interval.extent not in seen:
            seen.append(interval.extent)
    return seen


def label_continuity_check(mapping, source: FiniteTopology, target: FiniteTopology) -> CheckOutcome:
    failing = []
    for x, hood in zip(source.carrier.elements, source.neighbourhoods):
        image = target.mask_of(mapping[y] for y in source.labels_of(hood))
        target_hood = target.neighbourhoods[target.carrier.position(mapping[x])]
        if image & ~target_hood:
            failing.append(target_hood)
    witness = _least(target, failing)
    return CheckOutcome(witness is None, witness)


def label_is_open_map(mapping, source: FiniteTopology, target: FiniteTopology) -> bool:
    return all(
        target.is_open(mapping[y] for y in source.labels_of(hood)) for hood in source.neighbourhoods
    )


def label_is_preimage_topology(mapping, source: FiniteTopology, target: FiniteTopology) -> bool:
    elems = source.carrier.elements
    for x, hood in zip(elems, source.neighbourhoods):
        image_hood = target.neighbourhoods[target.carrier.position(mapping[x])]
        members = set(target.labels_of(image_hood))
        if hood != source.mask_of(y for y in elems if mapping[y] in members):
            return False
    return True


def label_is_dense(topology: FiniteTopology, subset) -> bool:
    mask = topology.mask_of(subset)
    return all(mask & hood for hood in _minimal_opens(topology))


def label_minimal_dense_subset(topology: FiniteTopology) -> set[str]:
    return {
        topology.carrier.elements[(hood & -hood).bit_length() - 1]
        for hood in _minimal_opens(topology)
    }


def label_projection_check(system: BubbleSystem) -> ProjectionReport:
    system.validate()
    relation = bubble_compose(system)
    projection = system.projection
    index_relation = system.index.relation()

    intervals_a = open_intervals(relation)
    intervals_i = open_intervals(index_relation)
    top_a = generate_topology(relation.carrier, intervals_a)
    top_i = generate_topology(index_relation.carrier, intervals_i)

    extents_a = {e for e in unique_extents(intervals_a) if e}
    extents_i = {e for e in unique_extents(intervals_i) if e}

    def project(subset):
        return frozenset(projection[x] for x in subset)

    def pull_back(subset):
        return frozenset(x for x in system.carrier.elements if projection[x] in subset)

    bijection = (
        {project(e) for e in extents_a} == extents_i
        and {pull_back(k) for k in extents_i} == extents_a
        and all(pull_back(project(e)) == e for e in extents_a)
        and all(project(pull_back(k)) == k for k in extents_i)
    )
    if system.index.n == 1:
        full = (1 << system.carrier.n) - 1
        base = all(hood == full for hood in top_a.neighbourhoods)
    else:
        base = is_base(sorted(extents_a, key=sorted), top_a).holds
    continuous = label_continuity_check(projection, top_a, top_i).holds
    open_map = label_is_open_map(projection, top_a, top_i)
    preimage_topology = label_is_preimage_topology(projection, top_a, top_i)
    connected_match = (
        connectivity_report(top_a).connected == connectivity_report(top_i).connected
    )
    dense = label_minimal_dense_subset(top_a)
    dense_image = label_is_dense(top_i, {projection[x] for x in dense})
    return ProjectionReport(
        extent_bijection=bijection,
        extents_form_base=base,
        continuous_and_open=continuous and open_map,
        preimage_topology=preimage_topology,
        connectedness_match=connected_match,
        dense_image=dense_image,
    )


# ---------------------------------------------------------------------------
# bit-probe scans

# The earlier row-level checks, kept as the reference for the word-parallel
# witness kernels in ``ordbubble.relations``: the eight witness scans, which
# probe one bit at a time, the boolean predicates of the sweep batteries,
# and the left, right and weak saturation scans.  All work on row tuples.

def scan_reflexive(rows, n):
    for i in range(n):
        if not rows[i] >> i & 1:
            return (i,)
    return None


def scan_irreflexive(rows, n):
    for i in range(n):
        if rows[i] >> i & 1:
            return (i,)
    return None


def scan_symmetric(rows, n):
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1 and not rows[j] >> i & 1:
                return (i, j)
    return None


def scan_antisymmetric(rows, n):
    for i in range(n):
        for j in range(n):
            if i != j and rows[i] >> j & 1 and rows[j] >> i & 1:
                return (i, j)
    return None


def scan_asymmetric(rows, n):
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1 and rows[j] >> i & 1:
                return (i, j)
    return None


def scan_complete(rows, n):
    for i in range(n):
        for j in range(n):
            if not rows[i] >> j & 1 and not rows[j] >> i & 1:
                return (i, j)
    return None


def scan_transitive(rows, n):
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                bad = rows[j] & ~rows[i]
                if bad:
                    return (i, j, (bad & -bad).bit_length() - 1)
    return None


def scan_negatively_transitive(rows, n):
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                continue
            for k in range(n):
                if rows[i] >> k & 1 and not rows[j] >> k & 1:
                    return (i, j, k)
    return None


SCANS = {
    "reflexive": scan_reflexive,
    "irreflexive": scan_irreflexive,
    "symmetric": scan_symmetric,
    "antisymmetric": scan_antisymmetric,
    "asymmetric": scan_asymmetric,
    "complete": scan_complete,
    "transitive": scan_transitive,
    "negatively_transitive": scan_negatively_transitive,
}


def _transpose(rows, n):
    return tuple(sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n))


def _compose_subset(a, b, target, n) -> bool:
    """True when the composition a.b is contained in target."""
    for i in range(n):
        acc = 0
        r = a[i]
        while r:
            y = (r & -r).bit_length() - 1
            acc |= b[y]
            r &= r - 1
        if acc & ~target[i]:
            return False
    return True


def sweep_predicates(rows, n) -> dict[str, bool]:
    """The sweep batteries' boolean predicates, keyed by flag name."""
    tr = _transpose(rows, n)
    full = (1 << n) - 1
    negtrans = True
    for i in range(n):
        r = rows[i]
        while r:
            z = (r & -r).bit_length() - 1
            if rows[i] | tr[z] != full:
                negtrans = False
            r &= r - 1
    return {
        "reflexive": all(rows[i] >> i & 1 for i in range(n)),
        "irreflexive": not any(rows[i] >> i & 1 for i in range(n)),
        "symmetric": rows == tr,
        "antisymmetric": all(rows[i] & tr[i] & ~(1 << i) == 0 for i in range(n)),
        "asymmetric": all(rows[i] & tr[i] == 0 for i in range(n)),
        "complete": all(rows[i] | tr[i] == full for i in range(n)),
        "transitive": _compose_subset(rows, rows, rows, n),
        "negatively_transitive": negtrans,
    }


def sweep_saturated(s, e, n) -> bool:
    """Full saturation of s for e as the sweep batteries computed it."""
    return _compose_subset(e, s, s, n) and _compose_subset(s, e, s, n)


def scan_saturation(srows, erows, n, mode):
    """Least witness of a saturation failure of s for e, or None."""

    def left():
        for x in range(n):
            er = erows[x]
            while er:
                y = (er & -er).bit_length() - 1
                bad = srows[y] & ~srows[x]
                if bad:
                    return (x, y, (bad & -bad).bit_length() - 1)
                er &= er - 1
        return None

    def right():
        for x in range(n):
            sr = srows[x]
            while sr:
                y = (sr & -sr).bit_length() - 1
                bad = erows[y] & ~srows[x]
                if bad:
                    return (x, y, (bad & -bad).bit_length() - 1)
                sr &= sr - 1
        return None

    def weak():
        for x in range(n):
            er = erows[x]
            while er:
                y = (er & -er).bit_length() - 1
                sr = srows[y]
                while sr:
                    z = (sr & -sr).bit_length() - 1
                    if not erows[z] & srows[x]:
                        return (x, y, z)
                    sr &= sr - 1
                er &= er - 1
        return None

    if mode == "full":
        return left() or right()
    return {"left": left, "right": right, "weak": weak}[mode]()


# ---------------------------------------------------------------------------
# label-level bubble pipeline

# The earlier loops of the bubble pipeline, which probe one pair of labels
# at a time with ``Relation.has``, kept as the reference for the row- and
# block-mask versions: ``Loset.relation``, the quotient rows of
# ``factor_relation`` and ``weak_factor_relation``, the ``coproduct_preorder``
# rows, the utility check and the ``strict-matches-index`` check.  The
# decomposition is rebuilt from its definitions.

def label_loset_relation(order: Loset) -> Relation:
    n = order.n
    rows = []
    for i in range(n):
        row = 1 << i
        for j in range(n):
            if order.ranks[i] < order.ranks[j]:
                row |= 1 << j
        rows.append(row)
    return Relation(order.carrier, tuple(rows))


def label_factor_relation(relation: Relation, equivalence: EquivalenceRelation) -> Relation:
    """Blocks related when their least members are (saturation unchecked)."""
    partition = classes(equivalence)
    reps = [block[0] for block in partition.blocks]
    pairs = [
        (f"B{i}", f"B{j}")
        for i, x in enumerate(reps)
        for j, y in enumerate(reps)
        if relation.has(x, y)
    ]
    return make_relation(Carrier(partition.block_labels), pairs)


def label_weak_factor_relation(relation: Relation, equivalence: EquivalenceRelation) -> Relation:
    """Block X reaches block Y when every member of X reaches one of Y."""
    partition = classes(equivalence)
    pairs = [
        (f"B{i}", f"B{j}")
        for i, src in enumerate(partition.blocks)
        for j, dst in enumerate(partition.blocks)
        if all(any(relation.has(x, y) for y in dst) for x in src)
    ]
    return make_relation(Carrier(partition.block_labels), pairs)


def label_coproduct_rows(index_order: Relation, summands, carrier: Carrier, projection) -> tuple[int, ...]:
    strict_index = derived_parts(index_order).asymmetric_part
    rows = []
    for x in carrier.elements:
        row = 0
        part_x = summands[projection[x]]
        for j, y in enumerate(carrier.elements):
            if projection[x] == projection[y]:
                if part_x.has(x, y):
                    row |= 1 << j
            elif strict_index.has(projection[x], projection[y]):
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def label_bubble_compose(system: BubbleSystem) -> Relation:
    labels = system.index.sorted_labels()
    summands = {label: bubble.inner.underlying for label, bubble in zip(labels, system.bubbles)}
    index_order = label_loset_relation(system.index)
    rows = label_coproduct_rows(index_order, summands, system.carrier, system.projection)
    return Relation(system.carrier, rows)


def label_bubble_decompose(relation: Relation) -> dict:
    """The JSON form of the bubble system of a decomposable preorder: the
    bubbles are the classes of strict-part incomparability, labelled B0, B1,
    ... by least member and listed from the strict bottom up, each with the
    symmetric part as its inner equivalence."""
    elems = relation.carrier.elements

    def strict(x, y):
        return relation.has(x, y) and not relation.has(y, x)

    blocks = []
    for x in elems:
        if not any(x in block for block in blocks):
            blocks.append([y for y in elems if not strict(x, y) and not strict(y, x)])
    order = sorted(
        range(len(blocks)), key=lambda i: sum(strict(b[0], blocks[i][0]) for b in blocks)
    )
    return {
        "index": [f"B{i}" for i in order],
        "bubbles": [
            {
                "label": f"B{i}",
                "elements": blocks[i],
                "inner_pairs": [
                    [x, y]
                    for x in blocks[i]
                    for y in blocks[i]
                    if relation.has(x, y) and relation.has(y, x)
                ],
            }
            for i in order
        ],
    }


def label_utility_check(relation: Relation, values) -> tuple[str, tuple[str, str]] | None:
    """The check name and the first (x, y) at which a smaller value is not
    strictly below or an equal value is not glued; None when none is."""
    strict = derived_parts(relation).asymmetric_part
    glue = derived_parts(strict).incomparability
    for x in relation.carrier.elements:
        for y in relation.carrier.elements:
            if (values[x] < values[y]) != strict.has(x, y):
                return "utility-strict", (x, y)
            if (values[x] == values[y]) != glue.has(x, y):
                return "utility-level", (x, y)
    return None


def label_index_check(strict: Relation, rank) -> tuple[str, str] | None:
    """The first (x, y) at which strictly below disagrees with a lower rank."""
    for x in strict.carrier.elements:
        for y in strict.carrier.elements:
            if strict.has(x, y) != (rank[x] < rank[y]):
                return (x, y)
    return None


# ---------------------------------------------------------------------------
# per-relation sweep batteries

# The sweep's batteries as they ran before the truth tables: one call per
# relation or (equivalence, free relation) pair, each predicate a witness
# kernel of ``ordbubble.relations``, each outcome tallied as one instance.

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



def equivalence_free_pairs(n: int):
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
    tallies.record_one(
        "inverse-complement-symmetry",
        sym_r
        == (_symmetric_witness(tr, rows, n) is None)
        == (_symmetric_witness(comp, comp_tr, n) is None),
        rows,
    )
    tallies.record_one(
        "inverse-asymmetry-complement-completeness",
        asym_r
        == (_asymmetric_witness(tr, rows, n) is None)
        == (_complete_witness(comp, comp_tr, n) is None),
        rows,
    )
    tallies.record_one(
        "transitivity-inverse-and-complement",
        trans_r == (_transitive_witness(tr, n) is None) and trans_r == negtrans(comp, n),
        rows,
    )
    tallies.record_one(
        "negative-transitivity-inverse-and-complement",
        negtrans_r == negtrans(tr, n) and negtrans_r == (_transitive_witness(comp, n) is None),
        rows,
    )

    # negative transitivity upgrades to transitivity under mild shape
    tallies.record_one(
        "negative-transitivity-upgrades",
        (not (refl_r and antisym_r and negtrans_r) or trans_r)
        and (not (asym_r and negtrans_r) or trans_r),
        rows,
    )
    tallies.record_one(
        "asymmetry-reflexivity-links",
        (not asym_r or irrefl_r)
        and (not (irrefl_r and trans_r) or asym_r)
        and (not complete_r or refl_r)
        and (not (trans_r and complete_r) or negtrans_r),
        rows,
    )
    tallies.record_one(
        "strict-order-two-faces",
        (asym_r and trans_r) == (irrefl_r and trans_r),
        rows,
    )

    i_rows = tuple(a & b for a, b in zip(rows, tr))
    p_rows = tuple(a & ~b for a, b in zip(rows, tr))
    u_rows = tuple(a | b for a, b in zip(rows, tr))
    e_rows = complement_rows(u_rows, n)
    p_tr = transpose_rows(p_rows, n)

    tallies.record_one(
        "derived-part-identities",
        complement_rows(i_rows, n) == tuple(a | b for a, b in zip(comp, comp_tr))
        and tuple(a & b for a, b in zip(comp, comp_tr)) == e_rows
        and complement_rows(p_rows, n) == tuple(a | b for a, b in zip(comp, tr))
        and tuple(~(a | b) & full for a, b in zip(p_rows, p_tr))
        == tuple(a | b for a, b in zip(e_rows, i_rows)),
        rows,
    )
    tallies.record_one(
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
    tallies.record_one(
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
    tallies.record_one("preorder-strict-absorption", _saturated(p_rows, rows, n), rows)
    tallies.record_one("strict-part-saturated", saturated(p_rows, i_rows, n), rows)
    tallies.record_one("preorder-saturated-for-its-equivalence", saturated(rows, i_rows, n), rows)
    tallies.record_one(
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
    tallies.record_one(
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
    tallies.record_one(
        "incomparability-equivalence",
        _reflexive_witness(e_rows, n) is None
        and _symmetric_witness(e_rows, transpose_rows(e_rows, n), n) is None
        and _transitive_witness(e_rows, n) is None,
        rows,
    )
    tallies.record_one("incomparability-union-transitive", _transitive_witness(script, n) is None, rows)
    tallies.record_one("strict-saturated-for-incomparability", saturated(rows, e_rows, n), rows)


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
    tallies.record_one("join-reflexive", _reflexive_witness(r_rows, n) is None, (e_rows, f_rows))
    tallies.record_one("join-transitive-saturates", not trans_r or f_sat_e, (e_rows, f_rows))
    tallies.record_one(
        "saturated-strict-saturates-join",
        not f_sat_e or saturated(r_rows, e_rows, n),
        (e_rows, f_rows),
    )
    tallies.record_one(
        "join-completeness-relative",
        (_complete_witness(r_rows, transpose_rows(r_rows, n), n) is None)
        == all(f_rows[i] | f_tr[i] == (full & ~e_rows[i]) for i in range(n)),
        (e_rows, f_rows),
    )
    if _transitive_witness(f_rows, n) is None:
        f_sat_r = saturated(f_rows, r_rows, n)
        agree = f_sat_r == trans_r == f_sat_e
        tallies.record_one("saturation-transitivity-equivalence", agree, (e_rows, f_rows))
        partitions = all(
            e_rows[i] & f_rows[i] == 0
            and e_rows[i] & f_tr[i] == 0
            and f_rows[i] & f_tr[i] == 0
            and e_rows[i] | f_rows[i] | f_tr[i] == full
            for i in range(n)
        )
        tallies.record_one(
            "partition-forces-saturation",
            not partitions or (f_sat_r and trans_r and f_sat_e),
            (e_rows, f_rows),
        )


def row_exhaustive_logic_sweep(n: int, tallies: SweepTallies, faults=frozenset()):
    for rows in all_rows(n):
        relation_battery(rows, n, tallies, faults)
    for e_rows, f_rows in equivalence_free_pairs(n):
        pair_battery(e_rows, f_rows, n, tallies, faults)


def row_random_logic_sweep(total: int, sizes, seed: int, tallies: SweepTallies):
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
