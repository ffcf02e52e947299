"""Independent brute-force oracles for the test suite.

Everything here quantifies explicitly over element labels with plain
loops, deliberately avoiding the package's bitmask kernels, so the two
routes can disagree when one of them is wrong.  The exceptions are the
two sections at the end, each an earlier implementation kept as the
reference for its replacement: the enumerated topology queries for the
neighbourhood model, and the bit-probe scans for the witness kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ordbubble import Carrier, EquivalenceRelation, Relation, make_relation
from ordbubble.errors import NotOpen, TooLarge, UnknownLabel, ValidationError
from ordbubble.structure import Bubble, BubbleSystem, Loset, bubble_compose
from ordbubble.topology import (
    CheckOutcome,
    ConnectivityReport,
    ProjectionReport,
    open_intervals,
    unique_extents,
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
