"""Finite interval topologies over a preorder's strict part.

A finite topology is stored as its n minimal neighbourhoods, one bitmask
per point; its open sets are exactly their unions (Alexandrov), so every
query here works on the masks.  Only listing the open sets enumerates
them, and that listing is capped at 16 elements.  Empty intervals stay in
listings (flagged) because gap detection is defined by their emptiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotOpen, TooLarge, UnknownLabel, ValidationError
from .relations import Carrier, Relation, derived_parts, transpose_rows
from .structure import BubbleSystem, Loset, _require_preorder, bubble_compose

_LISTING_CAP = 16
_COMPLETENESS_CAP = 12


@dataclass(frozen=True)
class Interval:
    """An open interval of a strict part: bounded, or one of the two rays.

    ``extent`` is the realized subset; it is recomputable from the
    endpoints against the relation the interval was read from.
    """

    kind: str  # bounded | left_ray | right_ray
    lower: str | None
    upper: str | None
    extent: frozenset[str]

    @property
    def empty(self) -> bool:
        return not self.extent

    def describe(self) -> str:
        if self.kind == "bounded":
            return f"({self.lower},{self.upper})"
        if self.kind == "left_ray":
            return f"(<-,{self.upper})"
        return f"({self.lower},->)"


@dataclass(frozen=True)
class FiniteTopology:
    """A finite topology stored as its minimal neighbourhoods.

    ``neighbourhoods[i]`` is the bitmask of U_i, the least open set that
    contains ``carrier.elements[i]``.  Each U_i contains i, and j in U_i
    implies U_j within U_i; both are validated at construction.  Only
    ``opens`` enumerates the open sets, and it is capped at 16 elements.
    """

    carrier: Carrier
    neighbourhoods: tuple[int, ...]

    def __post_init__(self):
        hoods = tuple(self.neighbourhoods)
        object.__setattr__(self, "neighbourhoods", hoods)
        n = self.carrier.n
        if len(hoods) != n:
            raise ValidationError("a topology needs one neighbourhood per element")
        full = (1 << n) - 1
        for i, hood in enumerate(hoods):
            if hood & ~full or not hood >> i & 1:
                raise ValidationError("a neighbourhood must contain its point and stay in the carrier")
            for j in _bits(hood):
                if hoods[j] & ~hood:
                    raise ValidationError("neighbourhoods must nest: j in U_i needs U_j within U_i")

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for x in labels:
            mask |= 1 << self.carrier.position(x)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(e for j, e in enumerate(self.carrier.elements) if mask >> j & 1)

    def is_open(self, labels: Iterable[str]) -> bool:
        return self._is_open_mask(self.mask_of(labels))

    def _is_open_mask(self, mask: int) -> bool:
        hoods = self.neighbourhoods
        return all(hoods[i] & ~mask == 0 for i in _bits(mask))

    @cached_property
    def opens(self) -> frozenset[int]:
        """Every open set as a bitmask, enumerated on first use."""
        n = self.carrier.n
        if n > _LISTING_CAP:
            raise TooLarge(f"listing open sets capped at {_LISTING_CAP} elements, got {n}")
        return frozenset(m for m in range(1 << n) if self._is_open_mask(m))

    def sorted_opens(self) -> list[tuple[str, ...]]:
        """Opens ordered by size then lexicographically by label list."""
        return sorted((self.labels_of(m) for m in self.opens), key=lambda s: (len(s), s))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _least(topology: FiniteTopology, masks: Iterable[int]) -> tuple[str, ...] | None:
    """The labels of the least mask by size then label list, or None."""
    return min((topology.labels_of(m) for m in masks), key=lambda s: (len(s), s), default=None)


def _minimal_opens(topology: FiniteTopology) -> set[int]:
    """The minimal nonempty opens: the U_i on which every member has the
    same neighbourhood.  They are pairwise disjoint."""
    hoods = topology.neighbourhoods
    return {hood for hood in hoods if all(hoods[j] == hood for j in _bits(hood))}


@dataclass(frozen=True)
class CheckOutcome:
    holds: bool
    witness: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    clopen_witness: tuple[str, ...] | None = None


@dataclass(frozen=True)
class CompletenessReport:
    all_sups: bool
    all_infs: bool
    compact: bool
    equivalence_holds: bool


@dataclass(frozen=True)
class ProjectionReport:
    """The six projection facts for a bubble coproduct and its index."""

    extent_bijection: bool
    extents_form_base: bool
    continuous_and_open: bool
    preimage_topology: bool
    connectedness_match: bool
    dense_image: bool

    def all_pass(self) -> bool:
        return all(
            (
                self.extent_bijection,
                self.extents_form_base,
                self.continuous_and_open,
                self.preimage_topology,
                self.connectedness_match,
                self.dense_image,
            )
        )


# ---------------------------------------------------------------------------
# intervals

def open_intervals(relation: Relation) -> list[Interval]:
    """All open intervals of the strict part: bounded ones over strictly
    related pairs, then the two rays of every element.  Intervals with an
    empty extent are retained and flagged via ``Interval.empty``."""
    _require_preorder(relation)
    strict = derived_parts(relation).asymmetric_part
    n = strict.n
    elems = relation.carrier.elements
    rows = strict.rows
    cols = transpose_rows(rows, n)

    def labels(mask: int) -> frozenset[str]:
        return frozenset(elems[j] for j in range(n) if mask >> j & 1)

    out: list[Interval] = []
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                out.append(Interval("bounded", elems[i], elems[j], labels(rows[i] & cols[j])))
    for i in range(n):
        out.append(Interval("left_ray", None, elems[i], labels(cols[i])))
        out.append(Interval("right_ray", elems[i], None, labels(rows[i])))
    return out


def unique_extents(intervals: Iterable[Interval]) -> list[frozenset[str]]:
    """Distinct interval extents in first-seen order."""
    seen: list[frozenset[str]] = []
    for interval in intervals:
        if interval.extent not in seen:
            seen.append(interval.extent)
    return seen


def generate_topology(carrier: Carrier, subbase: Sequence[Interval]) -> FiniteTopology:
    """The topology generated by the subbase.  The neighbourhood of a point
    is the intersection of the subbase extents through it, or the whole
    carrier when none passes through it."""
    hoods = [(1 << carrier.n) - 1] * carrier.n
    masks = []
    for interval in subbase:
        mask = 0
        for x in interval.extent:
            mask |= 1 << carrier.position(x)
        masks.append(mask)
        for i in _bits(mask):
            hoods[i] &= mask
    topology = FiniteTopology(carrier, tuple(hoods))
    for mask in masks:
        if not topology._is_open_mask(mask):
            raise ValidationError("subbase extent escaped its own topology")
    return topology


def interval_topology(relation: Relation) -> FiniteTopology:
    return generate_topology(relation.carrier, open_intervals(relation))


# ---------------------------------------------------------------------------
# checks

def is_base(family: Sequence[Iterable[str]], topology: FiniteTopology) -> CheckOutcome:
    """True when every open set is a union of family members; the witness
    is the least open (size, then labels) that is not.

    A member M with x in M inside U_x is U_x itself, so the family is a
    base exactly when it holds every neighbourhood, and the least open
    that is no union of members is the least missing neighbourhood.
    """
    masks = set()
    for member in family:
        mask = topology.mask_of(member)
        if not topology._is_open_mask(mask):
            raise NotOpen("family member is not open", tuple(sorted(member)))
        masks.add(mask)
    witness = _least(topology, [hood for hood in topology.neighbourhoods if hood not in masks])
    return CheckOutcome(witness is None, witness)


def connectivity_report(topology: FiniteTopology) -> ConnectivityReport:
    """Connected iff no proper nonempty open has an open complement.

    The components are those of the graph linking each point to its
    neighbourhood; the least clopen witness (size, then labels) is the
    least component.
    """
    hoods = topology.neighbourhoods
    components = []
    left = (1 << topology.carrier.n) - 1
    while left:
        component = left & -left
        grown = None
        while grown != component:
            grown = component
            for hood in hoods:
                if hood & component:
                    component |= hood
        components.append(component)
        left &= ~component
    witness = _least(topology, components) if len(components) > 1 else None
    return ConnectivityReport(witness is None, witness)


def gaps(relation: Relation) -> list[tuple[str, str]]:
    """Strictly related pairs whose open interval is empty, in carrier
    order."""
    _require_preorder(relation)
    strict = derived_parts(relation).asymmetric_part
    n = strict.n
    rows = strict.rows
    cols = transpose_rows(rows, n)
    elems = relation.carrier.elements
    out = []
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1 and not rows[i] & cols[j]:
                out.append((elems[i], elems[j]))
    return out


def order_completeness_report(order: Loset) -> CompletenessReport:
    """Exhaustive subset sweep for suprema and infima, and a constructive
    compactness check on the interval topology.

    The empty subset requires a least and a greatest element (its supremum
    is the least element, its infimum the greatest).  Compactness of a
    finite space is witnessed, not assumed: from each canonical open cover
    a finite subcover is actually extracted.
    """
    n = order.n
    if n > _COMPLETENESS_CAP:
        raise TooLarge(f"completeness sweep capped at {_COMPLETENESS_CAP} elements, got {n}")
    ranks = [order.rank_of(x) for x in order.carrier.elements]

    def sup_exists(mask: int) -> bool:
        # supremum = least element of the upper-bound set; the empty subset
        # asks for a least element of the whole loset
        members = [i for i in range(n) if mask >> i & 1]
        uppers = [u for u in range(n) if all(ranks[b] <= ranks[u] for b in members)]
        return any(all(ranks[u] <= ranks[v] for v in uppers) for u in uppers)

    def inf_exists(mask: int) -> bool:
        members = [i for i in range(n) if mask >> i & 1]
        lowers = [u for u in range(n) if all(ranks[u] <= ranks[b] for b in members)]
        return any(all(ranks[v] <= ranks[u] for v in lowers) for u in lowers)

    all_sups = all(sup_exists(mask) for mask in range(1 << n))
    all_infs = all(inf_exists(mask) for mask in range(1 << n))

    topology = interval_topology(order.relation())
    compact = _finite_subcover_exists(topology)
    return CompletenessReport(
        all_sups=all_sups,
        all_infs=all_infs,
        compact=compact,
        equivalence_holds=compact == (all_sups and all_infs),
    )


def _finite_subcover_exists(topology: FiniteTopology) -> bool:
    """Extract a subcover of size <= n from the cover by all opens: the
    least open through each point is its neighbourhood.  Any open cover of
    a finite space admits one by the same point-wise pick."""
    acc = 0
    for mask in topology.neighbourhoods:
        acc |= mask
    return acc == (1 << topology.carrier.n) - 1


def continuity_check(
    mapping: Mapping[str, str], source: FiniteTopology, target: FiniteTopology
) -> CheckOutcome:
    """True iff the preimage of every open of the target is open in the
    source; the witness is the least failing target open (size, then
    labels).

    The map is continuous exactly when it sends each U_x into U_f(x), and
    the least failing target open is the least U_f(x) over the x where it
    does not.
    """
    for x in source.carrier.elements:
        if x not in mapping:
            raise ValidationError(f"map is not total: {x!r} has no image", (x,))
        if mapping[x] not in target.carrier:
            raise UnknownLabel(f"image {mapping[x]!r} not in target carrier", (x,))
    failing = []
    for x, hood in zip(source.carrier.elements, source.neighbourhoods):
        image = target.mask_of(mapping[y] for y in source.labels_of(hood))
        target_hood = target.neighbourhoods[target.carrier.position(mapping[x])]
        if image & ~target_hood:
            failing.append(target_hood)
    witness = _least(target, failing)
    return CheckOutcome(witness is None, witness)


# ---------------------------------------------------------------------------
# projections of bubble coproducts

def projection_check(system: BubbleSystem) -> ProjectionReport:
    """Verify the six topological facts tying a bubble coproduct to its
    index: extents correspond, extents form a base, the projection is
    continuous and open, the topology is the preimage topology, the two
    spaces agree on connectedness, and a minimal dense subset projects
    onto a dense subset."""
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

    def project(subset: frozenset[str]) -> frozenset[str]:
        return frozenset(projection[x] for x in subset)

    def pull_back(subset: frozenset[str]) -> frozenset[str]:
        return frozenset(x for x in system.carrier.elements if projection[x] in subset)

    bijection = (
        {project(e) for e in extents_a} == extents_i
        and {pull_back(k) for k in extents_i} == extents_a
        and all(pull_back(project(e)) == e for e in extents_a)
        and all(project(pull_back(k)) == k for k in extents_i)
    )

    if system.index.n == 1:
        # a single bubble has no nonempty intervals; both spaces are the
        # indiscrete pair and the base question degenerates
        full = (1 << system.carrier.n) - 1
        base = all(hood == full for hood in top_a.neighbourhoods)
    else:
        base = is_base(sorted(extents_a, key=sorted), top_a).holds

    continuous = continuity_check(projection, top_a, top_i).holds
    open_map = _is_open_map(projection, top_a, top_i)
    preimage_topology = _is_preimage_topology(projection, top_a, top_i)

    connected_match = (
        connectivity_report(top_a).connected == connectivity_report(top_i).connected
    )

    dense = _minimal_dense_subset(top_a)
    dense_image = _is_dense(top_i, {projection[x] for x in dense})

    return ProjectionReport(
        extent_bijection=bijection,
        extents_form_base=base,
        continuous_and_open=continuous and open_map,
        preimage_topology=preimage_topology,
        connectedness_match=connected_match,
        dense_image=dense_image,
    )


def _is_open_map(mapping: Mapping[str, str], source: FiniteTopology, target: FiniteTopology) -> bool:
    """Every open, so every neighbourhood, goes onto an open."""
    return all(
        target.is_open(mapping[y] for y in source.labels_of(hood)) for hood in source.neighbourhoods
    )


def _is_preimage_topology(
    mapping: Mapping[str, str], source: FiniteTopology, target: FiniteTopology
) -> bool:
    """The opens of the source are the preimages of the target's: each U_x
    is the preimage of U_f(x)."""
    elems = source.carrier.elements
    for x, hood in zip(elems, source.neighbourhoods):
        image_hood = target.neighbourhoods[target.carrier.position(mapping[x])]
        members = set(target.labels_of(image_hood))
        if hood != source.mask_of(y for y in elems if mapping[y] in members):
            return False
    return True


def _is_dense(topology: FiniteTopology, subset: Iterable[str]) -> bool:
    """Meets every nonempty open, that is, every minimal one."""
    mask = topology.mask_of(subset)
    return all(mask & hood for hood in _minimal_opens(topology))


def _minimal_dense_subset(topology: FiniteTopology) -> set[str]:
    """A deterministic inclusion-minimal dense subset: the least element of
    every minimal nonempty open.  These opens are pairwise disjoint, so no
    pick can be dropped."""
    return {
        topology.carrier.elements[(hood & -hood).bit_length() - 1]
        for hood in _minimal_opens(topology)
    }
