"""Bubble decomposition and composition of preorders.

A preorder whose strict part is negatively transitive is, up to nothing at
all, a linearly ordered family of "bubbles": sets carrying an equivalence
relation.  Incomparability under the strict part glues the carrier into
bubbles, the quotient by that gluing is a linear order, and conversely any
linearly indexed family of bubbles composes back into such a preorder.
This module implements both directions, verifies the characterising
conclusions at runtime rather than trusting them, and provides the general
coproduct of preordered summands over a partially ordered index of which
the bubble case is a specialization.

Construction and verification run on row and block masks, with no
per-pair label lookups, and each fact is checked once: decompose and
compose by one O(n) bubbling check over the strict and symmetric rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    InvalidSystem,
    InvariantViolation,
    NotAPreorder,
    NotNegativelyTransitive,
    PairInvalid,
    ParseError,
    TooLarge,
    ValidationError,
)
from .factor import EquivalenceRelation, Partition, weak_factor_relation
from .relations import (
    Carrier,
    Relation,
    _first_violation,
    _is_label_list,
    _least_pair,
    _level_masks,
    _neg_transitive_witness,
    _reflexive_witness,
    _transitive_witness,
    _union_of,
    _unions,
    _with_transpose,
    all_rows,
    check_saturation,
    combine,
    derived_parts,
    make_relation,
    preorder_witness,
    transitive_closure,
)


@dataclass(frozen=True)
class Loset:
    """A linearly ordered carrier, stored as a rank order.

    ``ranks[i]`` is the position (0 = least) of ``carrier.elements[i]``.
    The carrier order is independent of the rank order; it only fixes
    iteration and tie-breaking downstream.
    """

    carrier: Carrier
    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        n = self.carrier.n
        if sorted(self.ranks) != list(range(n)):
            raise ValidationError("ranks must be a bijection onto 0..n-1")

    @property
    def n(self) -> int:
        return self.carrier.n

    def rank_of(self, label: str) -> int:
        return self.ranks[self.carrier.position(label)]

    def sorted_labels(self) -> tuple[str, ...]:
        order = sorted(range(self.n), key=lambda i: self.ranks[i])
        return tuple(self.carrier.elements[i] for i in order)

    def least(self) -> str:
        return self.sorted_labels()[0]

    def greatest(self) -> str:
        return self.sorted_labels()[-1]

    def relation(self) -> Relation:
        """The induced reflexive linear order as a relation: row i is the
        mask of the elements of rank at least i's."""
        level, above = _level_masks(self.ranks)
        return Relation(self.carrier, tuple(level[r] | above[r] for r in self.ranks))

    @classmethod
    def chain(cls, labels: Iterable[str]) -> "Loset":
        labels = tuple(labels)
        return cls(Carrier(labels), tuple(range(len(labels))))

    @classmethod
    def from_relation(cls, relation: Relation) -> "Loset":
        if violation := _first_violation(relation, ("reflexive", "antisymmetric", "transitive", "complete")):
            flag, witness = violation
            raise ValidationError(f"relation is not a linear order: not {flag}", witness)
        return cls(relation.carrier, tuple(relation.n - row.bit_count() for row in relation.rows))


@dataclass(frozen=True)
class PreorderSplit:
    """A preorder taken apart into its equivalence and strict components."""

    equivalence: EquivalenceRelation
    strict: Relation

    def validate(self) -> None:
        e = self.equivalence.underlying
        f = self.strict
        if e.carrier != f.carrier:
            raise ValidationError("split components must share a carrier")
        if any(a & b for a, b in zip(e.rows, f.rows)):
            raise ValidationError("equivalence and strict part must be disjoint")
        if violation := _first_violation(f, ("asymmetric", "transitive")):
            flag, witness = violation
            raise ValidationError(f"strict part must be {flag}", witness)
        sat = check_saturation(f, e, "full")
        if not sat.holds:
            raise ValidationError("strict part must be saturated for the equivalence", sat.witness or ())

    def joined(self) -> Relation:
        return combine(self.equivalence.underlying, self.strict, "union")


@dataclass(frozen=True)
class Bubble:
    """A set of elements equipped with an equivalence relation on them."""

    elements: tuple[str, ...]
    inner: EquivalenceRelation

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if tuple(self.inner.carrier.elements) != self.elements:
            raise ValidationError("inner equivalence carrier must be exactly the bubble elements")


@dataclass(frozen=True, eq=False)
class BubbleSystem:
    """A linearly ordered index plus pairwise-disjoint bubbles.

    ``carrier`` fixes the ambient element order so that composing after
    decomposing reproduces the source relation matrix exactly.
    """

    carrier: Carrier
    index: Loset
    bubbles: tuple[Bubble, ...]
    projection: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "bubbles", tuple(self.bubbles))
        object.__setattr__(self, "projection", MappingProxyType(dict(self.projection)))
        self.validate()

    def validate(self) -> None:
        if len(self.bubbles) != self.index.n:
            raise InvalidSystem("one bubble per index label is required")
        seen: set[str] = set()
        for bubble in self.bubbles:
            for x in bubble.elements:
                if x in seen:
                    raise InvalidSystem(f"bubbles must be pairwise disjoint; {x!r} repeats", (x,))
                seen.add(x)
                if x not in self.carrier:
                    raise InvalidSystem(f"bubble element {x!r} not in carrier", (x,))
        if len(seen) != self.carrier.n:
            raise InvalidSystem("bubbles must cover the carrier")
        labels = self.index.sorted_labels()
        for label, bubble in zip(labels, self.bubbles):
            for x in bubble.elements:
                if self.projection.get(x) != label:
                    raise InvalidSystem(
                        f"projection must send {x!r} to its bubble's index label", (x,)
                    )
        if len(self.projection) != self.carrier.n:
            raise InvalidSystem("projection disagrees with bubble membership")

    def partition_equivalence(self) -> EquivalenceRelation:
        blocks = tuple(bubble.elements for bubble in self.bubbles)
        return Partition(self.carrier, blocks).associated_equivalence()

    def same_shape(self, other: "BubbleSystem") -> bool:
        """Same partition, index order and inner equivalences (index labels
        themselves may differ)."""
        if len(self.bubbles) != len(other.bubbles):
            return False
        for mine, theirs in zip(self.bubbles, other.bubbles):
            if set(mine.elements) != set(theirs.elements):
                return False
            if set(mine.inner.underlying.pairs()) != set(theirs.inner.underlying.pairs()):
                return False
        return True

    def to_json_dict(self) -> dict:
        labels = self.index.sorted_labels()
        return {
            "index": list(labels),
            "bubbles": [
                {
                    "label": label,
                    "elements": list(bubble.elements),
                    "inner_pairs": [list(p) for p in bubble.inner.underlying.pairs()],
                }
                for label, bubble in zip(labels, self.bubbles)
            ],
        }


def bubble_system_from_json_dict(payload: dict) -> BubbleSystem:
    if not isinstance(payload, dict) or "index" not in payload or "bubbles" not in payload:
        raise ParseError("bubble-system JSON needs 'index' and 'bubbles' keys")
    index_labels = payload["index"]
    entries = payload["bubbles"]
    if not _is_label_list(index_labels) or not isinstance(entries, list):
        raise ParseError("'index' must be a list of strings and 'bubbles' a list")
    if len(index_labels) != len(entries):
        raise ParseError("'index' and 'bubbles' must have equal length", "bubbles")
    by_label = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"label", "elements", "inner_pairs"} <= set(entry):
            raise ParseError("bubble entries need label/elements/inner_pairs", f"bubbles[{k}]")
        if not isinstance(entry["label"], str) or not _is_label_list(entry["elements"]):
            raise ParseError(
                "a bubble label must be a string and its elements a list of strings", f"bubbles[{k}]"
            )
        pairs = entry["inner_pairs"]
        if not isinstance(pairs, list) or not all(_is_label_list(p) and len(p) == 2 for p in pairs):
            raise ParseError("inner_pairs must be a list of two-label lists", f"bubbles[{k}]")
        by_label[entry["label"]] = entry
    if set(by_label) != set(index_labels):
        raise ParseError("bubble labels must match the index labels", "bubbles")
    bubbles = []
    elements: list[str] = []
    projection: dict[str, str] = {}
    for label in index_labels:
        entry = by_label[label]
        elems = tuple(entry["elements"])
        if not elems:
            raise ParseError(f"bubble {label!r} has no elements", "bubbles")
        sub = Carrier(elems)
        inner_pairs = [tuple(p) for p in entry["inner_pairs"]]
        try:
            inner = EquivalenceRelation(make_relation(sub, inner_pairs))
        except ValidationError as exc:
            raise ValidationError(
                f"bubble {label!r} inner relation is not an equivalence: {exc}",
                getattr(exc, "witness", ()),
            ) from exc
        bubbles.append(Bubble(elems, inner))
        elements.extend(elems)
        projection.update({x: label for x in elems})
    carrier = Carrier(tuple(elements))
    index = Loset.chain(tuple(index_labels))
    return BubbleSystem(carrier=carrier, index=index, bubbles=tuple(bubbles), projection=projection)


# ---------------------------------------------------------------------------
# split / join

def _require_preorder(relation: Relation) -> None:
    witness = preorder_witness(relation)
    if witness is not None:
        raise NotAPreorder("relation is not reflexive and transitive", witness)


def split_preorder(relation: Relation) -> PreorderSplit:
    """Decompose a preorder into (equivalence part, strict part)."""
    _require_preorder(relation)
    parts = derived_parts(relation)
    split = PreorderSplit(EquivalenceRelation(parts.symmetric_part), parts.asymmetric_part)
    split.validate()
    if split.joined() != relation:
        raise InvariantViolation("split-union", "equivalence and strict part do not rebuild the preorder")
    return split


def join_pair(equivalence: EquivalenceRelation, strict: Relation) -> Relation:
    """Rebuild the preorder from a valid (equivalence, strict) pair."""
    e = equivalence.underlying
    if e.carrier != strict.carrier:
        raise PairInvalid("components must share a carrier")
    if violation := _first_violation(strict, ("asymmetric", "transitive")):
        flag, witness = violation
        raise PairInvalid(f"strict part is not {flag}", witness)
    if shared := _least_pair(a & b for a, b in zip(e.rows, strict.rows)):
        labels = tuple(e.carrier.elements[i] for i in shared)
        raise PairInvalid("equivalence and strict part overlap", labels)
    sat = check_saturation(strict, e, "full")
    if not sat.holds:
        raise PairInvalid("strict part is not saturated for the equivalence", sat.witness or ())
    joined = combine(e, strict, "union")
    parts = derived_parts(joined)
    if parts.symmetric_part != e or parts.asymmetric_part != strict:
        raise InvariantViolation("join-parts", "joined preorder does not split back into its inputs")
    _require_preorder(joined)
    return joined


# ---------------------------------------------------------------------------
# coproducts

def coproduct_preorder(
    index_order: Relation,
    summands: Mapping[str, Relation],
    carrier: Carrier | None = None,
) -> tuple[Relation, dict[str, str]]:
    """The coproduct preorder of preordered summands over a partially
    ordered index.

    x is below y when its index label is strictly below y's, or the labels
    agree and x is below y inside the summand.  Returns the relation and
    the projection element -> index label.
    """
    if violation := _first_violation(index_order, ("reflexive", "antisymmetric", "transitive")):
        raise ValidationError(f"index must be a partial order: not {violation[0]}")
    if set(summands) != set(index_order.carrier.elements):
        raise ValidationError("summands must be indexed by exactly the index labels")
    projection: dict[str, str] = {}
    for label in index_order.carrier.elements:
        part = summands[label]
        _require_preorder(part)
        for x in part.carrier.elements:
            if x in projection:
                raise ValidationError(f"summand carriers must be pairwise disjoint; {x!r} repeats", (x,))
            projection[x] = label
    if carrier is None:
        ordered: list[str] = []
        for label in index_order.carrier.elements:
            ordered.extend(summands[label].carrier.elements)
        carrier = Carrier(tuple(ordered))
    elif set(carrier.elements) != set(projection):
        raise ValidationError("carrier must list exactly the summand elements")

    labels = index_order.carrier.elements
    block, _ = _level_masks(projection[x] for x in carrier.elements)
    block_masks = [block[label] for label in labels]
    strict_index = [a & ~b for a, b in zip(index_order.rows, index_order._tr)]
    rows = [0] * carrier.n
    for label, higher_blocks in zip(labels, _unions(strict_index, block_masks)):
        part = summands[label]
        where = [1 << carrier.position(x) for x in part.carrier.elements]
        for bit, inner in zip(where, _unions(part.rows, where)):
            rows[bit.bit_length() - 1] = higher_blocks | inner
    relation = Relation(carrier, tuple(rows))
    _require_preorder(relation)
    return relation, projection


# ---------------------------------------------------------------------------
# decomposition and composition of bubbles

def _bubbling_levels(rows, tr) -> dict[int, list[int]] | None:
    """The levels of equal strict rows, keyed by minus the row's size (rank
    0, the least bubble, has the least key), each listing its positions, by
    least member first; None unless the relation is a bubbling of a loset,
    which holds exactly when (a) each strict row is the mask of the
    positions with smaller strict rows, and (b) each symmetric row is the
    mask of the positions sharing it, inside its level.  By (a) the strict
    part is the rank order, negatively transitive; by (b) the symmetric part
    is an equivalence inside the levels, so their union is a preorder.  Its
    converse: a negatively transitive strict part of a preorder is a strict
    weak order (Fishburn 1970), whose levels pass (a), and points related
    both ways share their strict rows, so (b) holds."""
    strict = [a & ~b for a, b in zip(rows, tr)]
    sym = [a & b for a, b in zip(rows, tr)]
    keys = [-row.bit_count() for row in strict]
    block, smaller = _level_masks(keys)
    share, _ = _level_masks(sym)
    if any(row != smaller[k] or s & ~block[k] for row, s, k in zip(strict, sym, keys)):
        return None
    if any(row != mask for row, mask in share.items()):
        return None
    level: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        level.setdefault(key, []).append(i)
    return level


def bubble_decompose(relation: Relation) -> BubbleSystem:
    """Decompose a preorder with negatively transitive strict part into its
    bubbles over a linearly ordered index.

    The bubbles are the levels of equal strict rows, ranked by size, and one
    check over the levels and the symmetric rows verifies the relation.
    """
    rows, tr, n = relation.rows, relation._tr, relation.n
    elems = relation.carrier.elements
    if (level := _bubbling_levels(rows, tr)) is None:
        _require_preorder(relation)
        if (w := _neg_transitive_witness(tuple(a & ~b for a, b in zip(rows, tr)), n)) is None:
            raise InvariantViolation("bubble-rank-levels", "strict rows must be the unions of the levels above")
        raise NotNegativelyTransitive("strict part is not negatively transitive", tuple(elems[i] for i in w))
    by_rank = sorted(level)
    label = {key: f"B{i}" for i, key in enumerate(level)}  # block i is B{i}, by least member
    rank = {key: r for r, key in enumerate(by_rank)}
    index = Loset(Carrier(tuple(label.values())), tuple(map(rank.__getitem__, level)))
    # inner rows: each symmetric class compressed to its bubble's bits once
    local = {i: 1 << k for inside in level.values() for k, i in enumerate(inside)}
    sym = [a & b for a, b in zip(rows, tr)]
    compressed = {row: _union_of(row, local) for row in set(sym)}
    bubbles, projection = [], {}
    for key in by_rank:
        inside = level[key]
        sub = Carrier(tuple(elems[i] for i in inside))
        inner = tuple(compressed[sym[i]] for i in inside)
        bubbles.append(Bubble(sub.elements, EquivalenceRelation._proved(_with_transpose(sub, inner, inner))))
        projection.update(dict.fromkeys(sub.elements, label[key]))
    return BubbleSystem(carrier=relation.carrier, index=index, bubbles=tuple(bubbles), projection=projection)


def bubble_compose(system: BubbleSystem) -> Relation:
    """Compose a bubble system back into a preorder; verifies that it is a
    bubbling, that incomparability under its strict part is exactly the
    bubble partition, and that strict comparisons agree with the index
    order.  The system was validated when it was built."""
    carrier, index = system.carrier, system.index
    # from the top of the index down: x's inner row, then every block above
    rows, above = [0] * carrier.n, 0
    for bubble in reversed(system.bubbles):
        where = [1 << carrier.position(x) for x in bubble.elements]
        for bit, inner in zip(where, _unions(bubble.inner.underlying.rows, where)):
            rows[bit.bit_length() - 1] = inner | above
        above |= sum(where)
    relation = Relation(carrier, tuple(rows))
    rows, tr, full = relation.rows, relation._tr, (1 << relation.n) - 1
    if _bubbling_levels(rows, tr) is None:
        # over a chain, only an inner relation that is no equivalence gets here
        for label in index.carrier.elements:
            _require_preorder(system.bubbles[index.rank_of(label)].inner.underlying)
        raise InvariantViolation("strict-part-negatively-transitive", "composed strict part must be negatively transitive")
    # the strict part's incomparability: pairs related both ways or neither
    glue = tuple(full & ~(a ^ b) for a, b in zip(rows, tr))
    elems, projection = carrier.elements, system.projection
    bubble, _ = _level_masks(projection[x] for x in elems)
    if glue != tuple(bubble[projection[x]] for x in elems):
        raise InvariantViolation("composed-glue-partition", "incomparability classes must be the bubbles")
    strict = tuple(a & ~b for a, b in zip(rows, tr))
    ranks = [index.rank_of(projection[x]) for x in elems]
    if pair := _index_violation(strict, ranks):
        x, y = (elems[i] for i in pair)
        raise InvariantViolation("strict-matches-index", f"({x!r}, {y!r})")
    return relation


def _index_violation(strict_rows, ranks) -> tuple[int, int] | None:
    """The least (x, y) at which ``strict_rows`` disagrees with "the rank of
    x is below the rank of y", or None; ``ranks`` is per carrier position."""
    _, above = _level_masks(ranks)
    return _least_pair(row ^ above[r] for row, r in zip(strict_rows, ranks))


@dataclass(frozen=True)
class BourbakiFactor:
    """The linear factor of an arbitrary preorder through chained
    incomparability."""

    partition: Partition
    order: Loset


def bourbaki_factor(relation: Relation) -> BourbakiFactor:
    """Factor any preorder to a linear order by gluing along the transitive
    closure of strict-part incomparability."""
    _require_preorder(relation)
    parts = derived_parts(relation)
    chained = transitive_closure(derived_parts(parts.asymmetric_part).incomparability)
    glue_eq = EquivalenceRelation(chained)
    if not check_saturation(relation, chained, "weak").holds:
        raise InvariantViolation("weak-saturation", "preorder must be weakly saturated for the gluing")
    quotient = weak_factor_relation(relation, glue_eq)
    try:
        order = Loset.from_relation(quotient.relation)
    except ValidationError as exc:
        raise InvariantViolation("factor-order-linear", str(exc)) from exc
    return BourbakiFactor(partition=quotient.partition, order=order)


# ---------------------------------------------------------------------------
# enumeration

def enumerate_preorders(n: int) -> Iterator[Relation]:
    """Every preorder on the canonical carrier e0..e{n-1}, by filtering all
    relations in lexicographic matrix order.  Guarded to n <= 4."""
    if not 1 <= n <= 4:
        raise TooLarge(f"preorder enumeration supports 1 <= n <= 4, got {n}", (str(n),))
    carrier = Carrier(tuple(f"e{i}" for i in range(n)))
    for rows in all_rows(n):
        if _reflexive_witness(rows, n) is None and _transitive_witness(rows, n) is None:
            yield Relation(carrier, rows)
