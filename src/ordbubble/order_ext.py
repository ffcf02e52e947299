"""Linear extensions, rational order embeddings and generalized utilities.

Everything here is exact: values are :class:`fractions.Fraction`, no
floating point enters any contract.  The fixed enumeration of [0, 1]
rationals starts 0, 1 and then walks the rationals strictly inside (0, 1)
in Calkin-Wilf breadth-first order (1/2, 1/3, 2/3, 1/4, 3/5, 2/5, 3/4,
...), which is injective and eventually hits every rational of the open
interval, so embeddings are reproducible bit for bit.

Checks run on row masks: a partial order with its three kernels only, a
utility against the masks of the positions of greater and of equal value.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import ClassVar, Mapping

from .errors import (
    AlreadyComparable,
    EmptyCarrier,
    InvariantViolation,
    NotAPartialOrder,
)
from .relations import Relation, _first_violation, _level_masks, combine, derived_parts
from .structure import Loset, bubble_decompose

def fusc(k: int) -> int:
    """Stern's diatomic sequence, the numerator stream of the Calkin-Wilf
    walk (fusc(1) = 1, fusc(2k) = fusc(k), fusc(2k+1) = fusc(k) + fusc(k+1))."""
    a, b = 1, 0
    for ch in bin(k)[2:]:
        if ch == "1":
            b = a + b
        else:
            a = a + b
    return b


@dataclass(frozen=True)
class RationalEnumeration:
    """The fixed sequence b1 = 0, b2 = 1, then Calkin-Wilf over (0, 1).

    Stateless: ``term`` maps an index straight to its rational, so
    concurrent consumers never contend.
    """

    def term(self, index: int) -> Fraction:
        if index < 1:
            raise ValueError("enumeration indices start at 1")
        if index == 1:
            return Fraction(0)
        if index == 2:
            return Fraction(1)
        j = index - 2
        a = fusc(j)
        return Fraction(a, a + fusc(j + 1))

    def first_index_inside(self, lo: Fraction, hi: Fraction) -> int:
        """The minimal index whose term lies strictly between lo and hi.

        Requires 0 <= lo < hi <= 1.  Walks the Stern-Brocot tree of (0, 1)
        toward the interval; the first tree node inside it is the unique
        shallowest enumerated rational there, and reversing the descent
        path spells out its breadth-first index.  Equivalent to scanning
        term(3), term(4), ... but without the scan.
        """
        if not (0 <= lo < hi <= 1):
            raise ValueError("need 0 <= lo < hi <= 1")
        a, b = 0, 1
        c, d = 1, 1
        bits = []
        while True:
            m_num, m_den = a + c, b + d
            if m_num * lo.denominator <= lo.numerator * m_den:
                a, b = m_num, m_den
                bits.append(1)
            elif m_num * hi.denominator >= hi.numerator * m_den:
                c, d = m_num, m_den
                bits.append(0)
            else:
                break
        j = 1
        for bit in reversed(bits):
            j = (j << 1) | bit
        return j + 2


UNIT_ENUMERATION = RationalEnumeration()


# ---------------------------------------------------------------------------
# Szpilrajn extension

def _require_partial_order(relation: Relation) -> None:
    if violation := _first_violation(relation, ("reflexive", "antisymmetric", "transitive")):
        flag, witness = violation
        raise NotAPartialOrder(f"relation is not a partial order: not {flag}", witness)


def szpilrajn_step(relation: Relation, a: str, b: str) -> Relation:
    """Extend a partial order by one incomparable pair (a, b), adding every
    pair (x, y) with x below a and b below y that the extension forces."""
    _require_partial_order(relation)
    if relation.has(a, b) or relation.has(b, a):
        raise AlreadyComparable(f"{a!r} and {b!r} are already comparable", (a, b))
    carrier = relation.carrier
    ia, ib = carrier.position(a), carrier.position(b)
    below_a = relation._tr[ia]
    above_b = relation.rows[ib]
    rows = tuple(
        row | above_b if below_a >> i & 1 else row for i, row in enumerate(relation.rows)
    )
    out = Relation(carrier, rows)
    _verify_step(relation, out, ia, ib)
    return out


def _verify_step(before: Relation, after: Relation, ia: int, ib: int) -> None:
    if violation := _first_violation(after, ("reflexive", "antisymmetric", "transitive")):
        raise InvariantViolation("extension-partial-order", f"step output not {violation[0]}")
    if not after.rows[ia] >> ib & 1:
        raise InvariantViolation("extension-contains-pair", "step output misses the adjoined pair")
    if any(b & ~a for a, b in zip(after.rows, before.rows)):
        raise InvariantViolation("extension-grows", "step output lost pairs")
    if after.rows == before.rows:
        raise InvariantViolation("extension-grows", "step output did not grow")


def szpilrajn_extend(relation: Relation) -> Loset:
    """Extend a partial order to a linear order by repeatedly adjoining the
    lexicographically least incomparable pair.  The finite carrier bounds
    the iteration by n(n-1)/2 steps."""
    _require_partial_order(relation)
    current = relation
    elems = relation.carrier.elements
    n = relation.n
    while True:
        pair = None
        for i in range(n):
            row_i = current.rows[i]
            for j in range(n):
                if i != j and not row_i >> j & 1 and not current.rows[j] >> i & 1:
                    pair = (elems[i], elems[j])
                    break
            if pair:
                break
        if pair is None:
            break
        current = szpilrajn_step(current, *pair)
    return Loset.from_relation(current)


# ---------------------------------------------------------------------------
# Cantor embedding

def cantor_embed(
    order: Loset, target: RationalEnumeration = UNIT_ENUMERATION
) -> dict[str, Fraction]:
    """Strictly increasing map of a finite loset into [0, 1] rationals.

    The least element goes to 0 and the greatest to 1; the remaining
    elements are inserted in carrier order, each taking the earliest
    enumerated rational that fits strictly between the images of its
    current neighbours.  A singleton maps to 0 by convention.
    """
    if order.carrier.n == 0:  # defensive; Carrier refuses to be empty
        raise EmptyCarrier("cannot embed an empty loset")
    least = order.least()
    values: dict[str, Fraction] = {least: target.term(1)}
    if order.n == 1:
        return values
    greatest = order.greatest()
    values[greatest] = target.term(2)
    placed: list[tuple[int, str]] = sorted(
        [(order.rank_of(least), least), (order.rank_of(greatest), greatest)]
    )
    for label in order.carrier.elements:
        if label in values:
            continue
        rank = order.rank_of(label)
        at = bisect_left(placed, (rank,))
        lo = values[placed[at - 1][1]]
        hi = values[placed[at][1]]
        values[label] = target.term(target.first_index_inside(lo, hi))
        insort(placed, (rank, label))
    return values


# ---------------------------------------------------------------------------
# generalized utility

@dataclass(frozen=True, eq=False)
class UtilityAssignment:
    """Exact rational utility for every element plus its interval kind.

    At finite scale the interval is always "[0,1]".
    """

    values: Mapping[str, Fraction]
    interval_kind: ClassVar[str] = "[0,1]"

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def to_json_dict(self) -> dict:
        return {
            "interval": self.interval_kind,
            "values": {label: str(value) for label, value in self.values.items()},
        }


def generalized_utility(relation: Relation) -> UtilityAssignment:
    """Utility for a preorder with negatively transitive strict part.

    Decomposes into bubbles, embeds the index loset into [0, 1] and lifts
    through the projection, then verifies both contract conditions exactly:
    strictly smaller value iff strictly below, equal value iff same bubble.
    """
    system = bubble_decompose(relation)  # NotAPreorder / NotNegativelyTransitive
    grid = cantor_embed(system.index)
    elems = relation.carrier.elements
    values = [grid[system.projection[x]] for x in elems]
    # bubble_decompose has checked that this is the strict part's incomparability
    parts = derived_parts(relation)
    glue = combine(parts.symmetric_part, parts.incomparability, "union")
    if violation := _utility_violation(values, parts.asymmetric_part.rows, glue.rows):
        check, i, j = violation
        raise InvariantViolation(check, f"({elems[i]!r}, {elems[j]!r})")
    return UtilityAssignment(values=dict(zip(elems, values)))


def _utility_violation(values, strict_rows, glue_rows) -> tuple[str, int, int] | None:
    """The check name and least (x, y) at which a smaller value fails to mean
    strictly below ("utility-strict") or an equal value fails to mean glued
    ("utility-level"), or None; ``values`` is per carrier position."""
    level, above = _level_masks(values)
    for x, (value, strict_row, glue_row) in enumerate(zip(values, strict_rows, glue_rows)):
        strict_diff = above[value] ^ strict_row
        diff = strict_diff | (level[value] ^ glue_row)
        if diff:
            y = (diff & -diff).bit_length() - 1
            return ("utility-strict" if strict_diff >> y & 1 else "utility-level", x, y)
    return None


# ---------------------------------------------------------------------------
# the explicit unit-interval homeomorphism, in exact arithmetic

def squash_to_symmetric_unit(x: Fraction) -> Fraction:
    """Order isomorphism of the rationals onto (-1, 1): x / (1 + |x|)."""
    return Fraction(x, 1 + abs(x))


def symmetric_unit_to_unit(y: Fraction) -> Fraction:
    """Order isomorphism (-1, 1) -> (0, 1) pinned by the composed map's
    values: (y + 1) / (y + 3)."""
    return Fraction(y + 1, y + 3)


def h_map(q: Fraction | int) -> Fraction:
    """Strictly increasing rational map into (0, 1):
    (x + 1 + |x|) / (x + 3 + 3|x|).

    Equals composing ``squash_to_symmetric_unit`` with
    ``symmetric_unit_to_unit``; h(0) = 1/3, h(1) = 3/7, h(-1) = 1/5.
    """
    q = Fraction(q)
    return Fraction(q + 1 + abs(q), q + 3 + 3 * abs(q))
