"""Finite interval topologies over a preorder's strict part.

A finite topology is stored as its n minimal neighbourhoods, one bitmask
per point: the rows of its specialization preorder, whose unions are the
open sets (Alexandrov 1937; Stong, "Finite topological spaces", 1966).
Generation, validation and the map checks are products and witness scans
of the ``relations`` row kernels.  The interval topology is generated by
its 2n rays: a bounded interval (a, b) is the right ray of a met with the
left ray of b.  Only listing the open sets enumerates them, capped at 16
elements; a listing orders them by size, then by label tuple in carrier
order, through one int sort key per open.  Empty intervals stay in
listings (flagged) because gap detection is defined by their emptiness.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotOpen, TooLarge, UnknownLabel, ValidationError
from .relations import Carrier, Relation, _compose_witness, _reflexive_witness, _union_of, _unions, transpose_rows
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
        # preorder rows: reflexive, and transitive before the first point
        # that fails, so the least failing point names the refusal
        full = (1 << n) - 1
        stray = next((i for i, hood in enumerate(hoods) if hood & ~full), n)
        first = min(stray, (_reflexive_witness(hoods, n) or (n,))[0])
        if _compose_witness(hoods[:first], hoods, hoods[:first], n) is not None:
            raise ValidationError("neighbourhoods must nest: j in U_i needs U_j within U_i")
        if first < n:
            raise ValidationError("a neighbourhood must contain its point and stay in the carrier")

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
        return _union_of(mask, self.neighbourhoods) == mask

    @cached_property
    def _tr(self) -> tuple[int, ...]:  # column i: the points whose neighbourhood holds i
        return transpose_rows(self.neighbourhoods, self.carrier.n)

    @cached_property
    def opens(self) -> frozenset[int]:
        """Every open set as a bitmask, enumerated on first use as the
        unions of the distinct neighbourhoods."""
        _require_listable(self.carrier.n)
        found = {0}
        for hood in set(self.neighbourhoods):
            found |= {m | hood for m in found}
        return frozenset(found)

    def sorted_opens(self) -> list[tuple[str, ...]]:
        """Opens as label tuples in carrier order, by size then lexicographically."""
        return [self.labels_of(m) for m in _sorted_open_masks(self)]


def _sorted_open_masks(topology: FiniteTopology) -> list[int]:
    """The opens as masks, by size and then label tuple.  Each sort key is
    one int: the popcount, the members' label ranks in carrier order as
    fixed-width digits (opens of one size have as many), then the mask.
    Per-8-position chunk tables make a key a few lookups."""
    opens, elems, n = topology.opens, topology.carrier.elements, topology.carrier.n
    rank = {x: r for r, x in enumerate(sorted(elems))}
    width, low, high = max(n - 1, 1).bit_length(), [0], [0]
    for k, x in enumerate(elems):  # the subsets holding position k append its digit
        table = low if k < 8 else high
        table += [digits << width | rank[x] for digits in table]
    shift, top, full = [width * h.bit_count() for h in range(len(high))], width * n + n, (1 << n) - 1
    keys = sorted(m.bit_count() << top | (low[m & 255] << shift[m >> 8] | high[m >> 8]) << n | m for m in opens)
    return [key & full for key in keys]


def _require_listable(n: int) -> None:
    if n > _LISTING_CAP:
        raise TooLarge(f"listing open sets capped at {_LISTING_CAP} elements, got {n}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _least(topology: FiniteTopology, masks: Iterable[int]) -> tuple[str, ...] | None:
    """The labels of the least mask by size then label list, or None."""
    return min((topology.labels_of(m) for m in masks), key=lambda s: (len(s), s), default=None)


def _minimal_opens(topology: FiniteTopology) -> set[int]:
    """The minimal nonempty opens: the U_i on which every member has the
    same neighbourhood.  Since j in U_i puts U_j within U_i, that is U_i
    within column i: each j in U_i has i in U_j.  They are pairwise
    disjoint."""
    return {hood for hood, col in zip(topology.neighbourhoods, topology._tr) if not hood & ~col}


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
        return all(astuple(self))


# ---------------------------------------------------------------------------
# intervals

def _strict_rows_cols(relation: Relation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The strict part's rows and columns: row a is the right ray (a,->),
    column b the left ray (<-,b)."""
    _require_preorder(relation)
    rows, tr = relation.rows, relation._tr
    return tuple(a & ~b for a, b in zip(rows, tr)), tuple(b & ~a for a, b in zip(rows, tr))


def open_intervals(relation: Relation) -> list[Interval]:
    """All open intervals of the strict part: bounded ones over strictly
    related pairs, then the two rays of every element.  Intervals with an
    empty extent are retained and flagged via ``Interval.empty``."""
    rows, cols = _strict_rows_cols(relation)
    elems = relation.carrier.elements

    def labels(mask: int) -> frozenset[str]:
        return frozenset(elems[j] for j in _bits(mask))

    out = [
        Interval("bounded", elems[i], elems[j], labels(row & cols[j]))
        for i, row in enumerate(rows)
        for j in _bits(row)
    ]
    for i, x in enumerate(elems):
        out.append(Interval("left_ray", None, x, labels(cols[i])))
        out.append(Interval("right_ray", x, None, labels(rows[i])))
    return out


def _interval_space(relation: Relation) -> tuple[FiniteTopology, list[int]]:
    """The interval topology and its distinct nonempty extents as masks:
    every ray, and each bounded (a, b) as rows[a] & cols[b]."""
    rows, cols = _strict_rows_cols(relation)
    extents = {row & cols[j] for row in rows for j in _bits(row)}
    extents.update(rows, cols)
    extents.discard(0)
    return _generate(relation.carrier, [*rows, *cols]), list(extents)


def _generate(carrier: Carrier, subbase: Sequence[int]) -> FiniteTopology:
    """The topology generated by the subbase masks.  U_i is the meet of the
    masks through i, or the whole carrier: the complement of the product of
    the membership transpose with the complemented masks.  Every mask is
    verified open, by one composition accept."""
    n, full = carrier.n, (1 << carrier.n) - 1
    outside = _unions(transpose_rows(subbase, n), [full & ~mask for mask in subbase])
    topology = FiniteTopology(carrier, tuple(full & ~mask for mask in outside))
    if _compose_witness(subbase, topology.neighbourhoods, subbase, n) is not None:
        raise ValidationError("subbase extent escaped its own topology")
    return topology


def generate_topology(carrier: Carrier, subbase: Sequence[Interval]) -> FiniteTopology:
    """The topology generated by the subbase intervals' extents."""
    return _generate(
        carrier, [sum({1 << carrier.position(x) for x in interval.extent}) for interval in subbase]
    )


def interval_topology(relation: Relation) -> FiniteTopology:
    """The topology generated by the open intervals, from the 2n rays."""
    rows, cols = _strict_rows_cols(relation)
    return _generate(relation.carrier, [*rows, *cols])


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
    neighbourhood, grown through the neighbourhood rows and columns; the
    least clopen witness (size, then labels) is the least component.
    """
    hoods, n = topology.neighbourhoods, topology.carrier.n
    links = [hood | col for hood, col in zip(hoods, topology._tr)]
    components, left = [], (1 << n) - 1
    while left:
        component, grown = left & -left, 0
        while grown != component:
            grown, component = component, _union_of(component, links)
        components.append(component)
        left &= ~component
    witness = _least(topology, components) if len(components) > 1 else None
    return ConnectivityReport(witness is None, witness)


def gaps(relation: Relation) -> list[tuple[str, str]]:
    """Strictly related pairs whose open interval is empty, in carrier
    order."""
    return _gaps(relation.carrier.elements, *_strict_rows_cols(relation))


def _gaps(elems: Sequence[str], rows: Sequence[int], cols: Sequence[int]) -> list[tuple[str, str]]:
    return [(elems[i], elems[j]) for i, row in enumerate(rows) for j in _bits(row) if not row & cols[j]]


def order_completeness_report(order: Loset) -> CompletenessReport:
    """Exhaustive subset sweep for suprema and infima.

    The empty subset requires a least and a greatest element (its supremum
    is the least element, its infimum the greatest).  ``compact`` is always
    True: a finite space has finitely many opens, so every open cover of
    its interval topology is already finite.
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

    return CompletenessReport(
        all_sups=all_sups,
        all_infs=all_infs,
        compact=True,
        equivalence_holds=all_sups and all_infs,
    )


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
    image_of = []
    for x in source.carrier.elements:
        if x not in mapping:
            raise ValidationError(f"map is not total: {x!r} has no image", (x,))
        if mapping[x] not in target.carrier:
            raise UnknownLabel(f"image {mapping[x]!r} not in target carrier", (x,))
        image_of.append(1 << target.carrier.position(mapping[x]))
    witness = _least(target, _discontinuities(image_of, source, target))
    return CheckOutcome(witness is None, witness)


def _discontinuities(image_of: Sequence[int], source: FiniteTopology, target: FiniteTopology) -> list[int]:
    """The U_f(x) that U_x is not sent into."""
    images = _unions(source.neighbourhoods, image_of)
    return [hood for image, hood in zip(images, _unions(image_of, target.neighbourhoods)) if image & ~hood]


# ---------------------------------------------------------------------------
# projections of bubble coproducts

def projection_check(system: BubbleSystem) -> ProjectionReport:
    """Verify the six topological facts tying a bubble coproduct to its
    index: extents correspond, extents form a base, the projection is
    continuous and open, the topology is the preimage topology, the two
    spaces agree on connectedness, and a minimal dense subset projects
    onto a dense subset."""
    relation = bubble_compose(system)
    top_a, extents_a = _interval_space(relation)
    top_i, extents_i = _interval_space(system.index.relation())

    # images of sets are their product with the one-bit image rows, and
    # preimages their product with the transpose.  The extents correspond
    # when A's images are I's extents and each comes back to itself; then
    # I's preimages are A's extents, and they come back too.
    image_of = [1 << top_i.carrier.position(system.projection[x]) for x in relation.carrier.elements]
    preimage_of = transpose_rows(image_of, top_i.carrier.n)
    images = _unions(extents_a, image_of)
    bijection = set(images) == set(extents_i) and _unions(images, preimage_of) == extents_a

    if system.index.n == 1:
        # a single bubble has no nonempty intervals; both spaces are the
        # indiscrete pair and the base question degenerates
        full = (1 << system.carrier.n) - 1
        base = all(hood == full for hood in top_a.neighbourhoods)
    else:
        # every extent is open, and a base is one holding every neighbourhood
        base = set(top_a.neighbourhoods) <= set(extents_a)

    continuous = not _discontinuities(image_of, top_a, top_i)
    open_map = _is_open_map(image_of, top_a, top_i)
    preimage_topology = _is_preimage_topology(image_of, top_a, top_i)

    connected_match = (
        connectivity_report(top_a).connected == connectivity_report(top_i).connected
    )

    # a dense set meets every nonempty open, that is, every minimal one
    projected = _union_of(_minimal_dense_subset(top_a), image_of)
    dense_image = all(projected & hood for hood in _minimal_opens(top_i))

    return ProjectionReport(
        extent_bijection=bijection,
        extents_form_base=base,
        continuous_and_open=continuous and open_map,
        preimage_topology=preimage_topology,
        connectedness_match=connected_match,
        dense_image=dense_image,
    )


def _is_open_map(image_of: Sequence[int], source: FiniteTopology, target: FiniteTopology) -> bool:
    """Every open, so every neighbourhood, goes onto an open."""
    images = _unions(source.neighbourhoods, image_of)
    return _unions(images, target.neighbourhoods) == images


def _is_preimage_topology(image_of: Sequence[int], source: FiniteTopology, target: FiniteTopology) -> bool:
    """The opens of the source are the preimages of the target's: each U_x
    is the preimage of U_f(x)."""
    preimage_of = transpose_rows(image_of, target.carrier.n)
    return _unions(_unions(image_of, target.neighbourhoods), preimage_of) == list(source.neighbourhoods)


def _minimal_dense_subset(topology: FiniteTopology) -> int:
    """A deterministic inclusion-minimal dense subset, as a mask: the least
    element of every minimal nonempty open.  These opens are pairwise
    disjoint, so no pick can be dropped."""
    dense = 0
    for hood in _minimal_opens(topology):
        dense |= hood & -hood
    return dense
