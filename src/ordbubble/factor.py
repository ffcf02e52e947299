"""Equivalence relations, partitions, canonical maps and quotient relations.

The canonical stored form of a quotient is the :class:`Partition`; the
equivalence matrix is derived on demand.  Block labels are ``B0, B1, ...``
in order of least member under carrier order, so quotient carriers come out
deterministic.  A quotient row is the Boolean product of a row with the
one-bit rows that send each element to its block, and an equivalence is
validated with its three kernels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_
from typing import Iterable, Mapping

from .errors import (
    CarrierMismatch,
    NotAnEquivalence,
    NotAnIndifference,
    NotConstantOnClasses,
    NotIncreasing,
    NotSaturated,
    UnknownLabel,
    ValidationError,
)
from .relations import (
    Carrier,
    Relation,
    _first_violation,
    _unions,
    check_saturation,
    transitive_closure,
)


@dataclass(frozen=True)
class EquivalenceRelation:
    """A relation validated to be reflexive, symmetric and transitive."""

    underlying: Relation

    def __post_init__(self):
        if violation := _first_violation(self.underlying, ("reflexive", "symmetric", "transitive")):
            flag, witness = violation
            raise NotAnEquivalence(f"relation is not {flag}", witness)

    @property
    def carrier(self) -> Carrier:
        return self.underlying.carrier

    def related(self, x: str, y: str) -> bool:
        return self.underlying.has(x, y)

    def class_of(self, x: str) -> tuple[str, ...]:
        row = self.underlying.rows[self.carrier.position(x)]
        return tuple(e for j, e in enumerate(self.carrier.elements) if row >> j & 1)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering the carrier.

    Blocks are normalised: elements inside a block follow carrier order and
    blocks are ordered by their least member.
    """

    carrier: Carrier
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if any(not block for block in self.blocks):
            raise ValidationError("partition blocks must be nonempty")
        pos = self.carrier.position
        normal = tuple(
            tuple(sorted(block, key=pos))
            for block in sorted((tuple(b) for b in self.blocks), key=lambda b: min(pos(x) for x in b))
        )
        object.__setattr__(self, "blocks", normal)
        seen: set[str] = set()
        for block in self.blocks:
            for x in block:
                if x not in self.carrier:
                    raise UnknownLabel(f"block element {x!r} not in carrier", (x,))
                if x in seen:
                    raise ValidationError(f"element {x!r} appears in two blocks", (x,))
                seen.add(x)
        if len(seen) != self.carrier.n:
            missing = [e for e in self.carrier.elements if e not in seen]
            raise ValidationError("blocks must cover the carrier", tuple(missing))

    @property
    def block_labels(self) -> tuple[str, ...]:
        return tuple(f"B{i}" for i in range(len(self.blocks)))

    @cached_property
    def _block_index(self) -> dict[str, int]:
        return {x: i for i, block in enumerate(self.blocks) for x in block}

    def block_of(self, x: str) -> int:
        if x not in self._block_index:
            raise UnknownLabel(f"label {x!r} not in carrier", (x,))
        return self._block_index[x]

    def canonical_map(self) -> dict[str, str]:
        """element -> block label (the canonical surjection onto the quotient)."""
        return {x: f"B{i}" for x, i in self._block_index.items()}

    def _block_bits(self) -> list[int]:
        """Per carrier position, the one-bit mask of its block."""
        index = self._block_index
        return [1 << index[x] for x in self.carrier.elements]

    def block_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.blocks)
        for x, i in self._block_index.items():
            masks[i] |= 1 << self.carrier.position(x)
        return tuple(masks)

    def associated_equivalence(self) -> EquivalenceRelation:
        rows = [0] * self.carrier.n
        for mask in self.block_masks():
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                rows[i] |= mask
                m &= m - 1
        return EquivalenceRelation(Relation(self.carrier, tuple(rows)))

    def to_json_dict(self) -> dict:
        return {"blocks": [list(block) for block in self.blocks]}


@dataclass(frozen=True)
class QuotientRelation:
    """A relation over the block labels of a partition."""

    partition: Partition
    relation: Relation

    def __post_init__(self):
        if self.relation.carrier.elements != self.partition.block_labels:
            raise ValidationError("quotient carrier must be the partition's block labels")


def classes(equivalence: EquivalenceRelation) -> Partition:
    """The partition of the carrier into equivalence classes."""
    carrier = equivalence.carrier
    elems = carrier.elements
    blocks = []
    seen = 0
    for i, mask in enumerate(equivalence.underlying.rows):
        if seen >> i & 1:
            continue
        seen |= mask
        block = []
        while mask:
            low = mask & -mask
            block.append(elems[low.bit_length() - 1])
            mask ^= low
        blocks.append(tuple(block))
    return Partition(carrier, tuple(blocks))


def factor_relation(relation: Relation, equivalence: EquivalenceRelation) -> QuotientRelation:
    """Quotient of a fully saturated relation; related blocks are witnessed
    by (equivalently, by saturation: all) representative pairs."""
    if relation.carrier != equivalence.carrier:
        raise CarrierMismatch("relation and equivalence must share a carrier")
    sat = check_saturation(relation, equivalence.underlying, "full")
    if not sat.holds:
        raise NotSaturated("relation is not saturated for the equivalence", sat.witness)
    partition = classes(equivalence)
    reps = [relation.rows[(m & -m).bit_length() - 1] for m in partition.block_masks()]
    rows = tuple(_unions(reps, partition._block_bits()))
    return QuotientRelation(partition, Relation(Carrier(partition.block_labels), rows))


def weak_factor_relation(relation: Relation, equivalence: EquivalenceRelation) -> QuotientRelation:
    """Quotient where block X reaches block Y iff every member of X reaches
    some member of Y.  Defined for arbitrary relations."""
    if relation.carrier != equivalence.carrier:
        raise CarrierMismatch("relation and equivalence must share a carrier")
    partition = classes(equivalence)
    met = list(_unions(relation.rows, partition._block_bits()))
    position = relation.carrier.position
    rows = tuple(reduce(and_, [met[position(x)] for x in block]) for block in partition.blocks)
    return QuotientRelation(partition, Relation(Carrier(partition.block_labels), rows))


def indifference_curves(relation: Relation) -> Partition:
    """Connected components under the transitive closure of an indifference
    (a reflexive and symmetric relation)."""
    if violation := _first_violation(relation, ("reflexive", "symmetric")):
        flag, witness = violation
        raise NotAnIndifference(f"relation is not {flag}", witness)
    closure = transitive_closure(relation)
    return classes(EquivalenceRelation(closure))


def product_equivalence(
    left: EquivalenceRelation, right: EquivalenceRelation
) -> EquivalenceRelation:
    """The product equivalence on the Cartesian product carrier.

    Product labels are "(x,y)" in lexicographic (left-major) order.
    """
    a, b = left.carrier, right.carrier
    labels = tuple(f"({x},{y})" for x in a.elements for y in b.elements)
    carrier = Carrier(labels)
    nb = b.n
    rows = []
    for i in range(a.n):
        for j in range(b.n):
            row = 0
            arow = left.underlying.rows[i]
            brow = right.underlying.rows[j]
            for k in range(a.n):
                if arow >> k & 1:
                    row |= brow << (k * nb)
            rows.append(row)
    return EquivalenceRelation(Relation(carrier, tuple(rows)))


def is_saturated_subset(labels: Iterable[str], equivalence: EquivalenceRelation) -> bool:
    """True when the subset is a union of equivalence classes."""
    carrier = equivalence.carrier
    mask = 0
    for x in labels:
        mask |= 1 << carrier.position(x)
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if equivalence.underlying.rows[i] & ~mask:
            return False
        m &= m - 1
    return True


@dataclass(frozen=True)
class FactorThrough:
    """A map factored through the canonical surjection onto the quotient."""

    on_blocks: dict[str, str]
    surjective: bool
    kernel_is_equivalence: bool
    bijective: bool


def factor_through(
    mapping: Mapping[str, str],
    equivalence: EquivalenceRelation,
    source: Relation,
    target: Relation,
) -> FactorThrough:
    """Factor an increasing, class-constant map through the quotient.

    Returns the induced map on block labels together with whether it is
    surjective onto the target carrier and bijective (which happens exactly
    when the equivalence is the kernel of the map and the map is onto).
    """
    a = source.carrier
    b = target.carrier
    if equivalence.carrier != a:
        raise CarrierMismatch("equivalence must live on the source carrier")
    for x in a.elements:
        if x not in mapping:
            raise ValidationError(f"map is not total: {x!r} has no image", (x,))
        if mapping[x] not in b:
            raise UnknownLabel(f"image {mapping[x]!r} not in target carrier", (x, mapping[x]))
    for x in a.elements:
        for y in a.elements:
            if equivalence.related(x, y) and mapping[x] != mapping[y]:
                raise NotConstantOnClasses(
                    f"map separates equivalent elements {x!r} and {y!r}", (x, y)
                )
    for x in a.elements:
        for y in a.elements:
            if source.has(x, y) and not target.has(mapping[x], mapping[y]):
                raise NotIncreasing(f"map is not increasing on ({x!r}, {y!r})", (x, y))
    partition = classes(equivalence)
    on_blocks = {f"B{i}": mapping[block[0]] for i, block in enumerate(partition.blocks)}
    surjective = set(on_blocks.values()) == set(b.elements)
    kernel_matches = all(
        equivalence.related(x, y) == (mapping[x] == mapping[y])
        for x in a.elements
        for y in a.elements
    )
    return FactorThrough(
        on_blocks=on_blocks,
        surjective=surjective,
        kernel_is_equivalence=kernel_matches,
        bijective=surjective and kernel_matches,
    )


def refines(fine: EquivalenceRelation, coarse: EquivalenceRelation) -> bool:
    """True when every class of ``fine`` sits inside a class of ``coarse``."""
    if fine.carrier != coarse.carrier:
        raise CarrierMismatch("equivalences must share a carrier")
    return all(
        f & ~c == 0 for f, c in zip(fine.underlying.rows, coarse.underlying.rows)
    )


def refinement_map(fine: Partition, coarse: Partition) -> dict[str, str] | None:
    """Block label of ``fine`` -> containing block label of ``coarse``,
    or None when ``fine`` does not refine ``coarse``."""
    if fine.carrier != coarse.carrier:
        raise CarrierMismatch("partitions must share a carrier")
    out = {}
    for i, block in enumerate(fine.blocks):
        targets = {coarse.block_of(x) for x in block}
        if len(targets) != 1:
            return None
        out[f"B{i}"] = f"B{targets.pop()}"
    return out
