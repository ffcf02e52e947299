"""Finite binary relations as boolean matrices packed into per-row bitmasks.

A relation on a carrier of ``n`` labelled elements is stored as ``n``
integers; bit ``j`` of ``rows[i]`` says whether the pair ``(e_i, e_j)``
belongs to the relation.  Rows being machine words makes the whole derived
calculus (inverse, complement, symmetric/asymmetric parts, closure, the
predicate battery) word-parallel, which keeps exhaustive sweeps over all
relations of a small carrier cheap.

All values are immutable; every operation is a pure function of its inputs.
Witness-producing checks scan in carrier order and always report the
lexicographically least violating tuple, so reports are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    CarrierMismatch,
    EmptyCarrier,
    InvariantViolation,
    NotAnEquivalence,
    ParseError,
    TooLarge,
    UnknownLabel,
    ValidationError,
)


@dataclass(frozen=True)
class Carrier:
    """An ordered set of distinct element labels (n >= 1).

    The construction order is fixed and used for all deterministic
    tie-breaking: iteration, witness selection, block ordering.
    """

    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) == 0:
            raise EmptyCarrier("carrier must contain at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError("carrier labels must be pairwise distinct")
        if not all(isinstance(e, str) for e in self.elements):
            raise ValidationError("carrier labels must be strings")

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.elements)}

    def position(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} is not in the carrier", (label,)) from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Relation:
    """A binary relation over a finite carrier, one bitmask row per element."""

    carrier: Carrier
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.carrier.n
        if len(self.rows) != n:
            raise ValidationError("matrix dimensions must match carrier size")
        full = (1 << n) - 1
        if any(row < 0 or row > full for row in self.rows):
            raise ValidationError("relation rows out of range for carrier size")

    @property
    def n(self) -> int:
        return self.carrier.n

    def has(self, x: str, y: str) -> bool:
        return bool(self.rows[self.carrier.position(x)] >> self.carrier.position(y) & 1)

    def pairs(self) -> list[tuple[str, str]]:
        """All member pairs, ordered by carrier position."""
        elems = self.carrier.elements
        out = []
        for i, row in enumerate(self.rows):
            while row:
                j = (row & -row).bit_length() - 1
                out.append((elems[i], elems[j]))
                row &= row - 1
        return out

    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "elements": list(self.carrier.elements),
            "pairs": [list(p) for p in self.pairs()],
        }


@dataclass(frozen=True)
class DerivedParts:
    """The four canonical relations derived from R.

    symmetric_part   : pairs related both ways
    asymmetric_part  : pairs related one way only
    comparability    : pairs related at least one way
    incomparability  : pairs related neither way
    """

    symmetric_part: Relation
    asymmetric_part: Relation
    comparability: Relation
    incomparability: Relation


_FLAG_NAMES = (
    "reflexive",
    "irreflexive",
    "symmetric",
    "antisymmetric",
    "asymmetric",
    "complete",
    "transitive",
    "negatively_transitive",
)


@dataclass(frozen=True)
class PropertyReport:
    """Boolean predicate battery with a least witness for each false flag."""

    reflexive: bool
    irreflexive: bool
    symmetric: bool
    antisymmetric: bool
    asymmetric: bool
    complete: bool
    transitive: bool
    negatively_transitive: bool
    witnesses: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in _FLAG_NAMES}


@dataclass(frozen=True)
class SaturationCheck:
    """Outcome of a saturation check; ``witness`` is set when it fails."""

    holds: bool
    mode: str
    witness: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


# ---------------------------------------------------------------------------
# row-level kernels (shared by the public API and the sweep harness)

def transpose_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    cols = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            j = (row & -row).bit_length() - 1
            cols[j] |= bit
            row &= row - 1
    return tuple(cols)


def complement_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(~row & full for row in rows)


def diagonal_rows(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def rows_reflexive(rows, n) -> bool:
    return all(rows[i] >> i & 1 for i in range(n))


def rows_irreflexive(rows, n) -> bool:
    return not any(rows[i] >> i & 1 for i in range(n))


def rows_symmetric(rows, n) -> bool:
    return rows == transpose_rows(rows, n)


def rows_antisymmetric(rows, n) -> bool:
    tr = transpose_rows(rows, n)
    return all((rows[i] & tr[i]) & ~(1 << i) == 0 for i in range(n))


def rows_asymmetric(rows, n) -> bool:
    tr = transpose_rows(rows, n)
    return all(rows[i] & tr[i] == 0 for i in range(n))


def rows_complete(rows, n) -> bool:
    tr = transpose_rows(rows, n)
    full = (1 << n) - 1
    return all(rows[i] | tr[i] == full for i in range(n))


def compose_rows(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    """(a . b)[x][z] iff exists y with a[x][y] and b[y][z]."""
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            y = (r & -r).bit_length() - 1
            acc |= b[y]
            r &= r - 1
        out.append(acc)
    return tuple(out)


def rows_transitive(rows, n) -> bool:
    for row in rows:
        acc = 0
        r = row
        while r:
            y = (r & -r).bit_length() - 1
            acc |= rows[y]
            r &= r - 1
        if acc & ~row:
            return False
    return True


def rows_negatively_transitive(rows, n) -> bool:
    """xRz implies xRy or yRz, quantified word-parallel over y."""
    tr = transpose_rows(rows, n)
    full = (1 << n) - 1
    for i in range(n):
        row = rows[i]
        r = row
        while r:
            z = (r & -r).bit_length() - 1
            if row | tr[z] != full:
                return False
            r &= r - 1
    return True


def closure_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Reachability with at least one step (Warshall over bitmask rows)."""
    out = list(rows)
    for k in range(n):
        bit = 1 << k
        row_k = out[k]
        for i in range(n):
            if out[i] & bit:
                out[i] |= row_k
    return tuple(out)


# ---------------------------------------------------------------------------
# witness scans (direct quantification, lexicographically least tuple)

def _reflexive_witness(rows, n):
    for i in range(n):
        if not rows[i] >> i & 1:
            return (i,)
    return None


def _irreflexive_witness(rows, n):
    for i in range(n):
        if rows[i] >> i & 1:
            return (i,)
    return None


def _symmetric_witness(rows, n):
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1 and not rows[j] >> i & 1:
                return (i, j)
    return None


def _antisymmetric_witness(rows, n):
    for i in range(n):
        for j in range(n):
            if i != j and rows[i] >> j & 1 and rows[j] >> i & 1:
                return (i, j)
    return None


def _asymmetric_witness(rows, n):
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1 and rows[j] >> i & 1:
                return (i, j)
    return None


def _complete_witness(rows, n):
    for i in range(n):
        for j in range(n):
            if not rows[i] >> j & 1 and not rows[j] >> i & 1:
                return (i, j)
    return None


def _transitive_witness(rows, n):
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                bad = rows[j] & ~rows[i]
                if bad:
                    return (i, j, (bad & -bad).bit_length() - 1)
    return None


def _neg_transitive_witness(rows, n):
    # Direct O(n^3) quantification of "xRz implies xRy or yRz"; this scan is
    # the oracle other modules rely on, so no algebraic shortcut is taken.
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                continue
            for k in range(n):
                if rows[i] >> k & 1 and not rows[j] >> k & 1:
                    return (i, j, k)
    return None


# ---------------------------------------------------------------------------
# public operations

def make_relation(carrier: Carrier, pairs: Iterable[tuple[str, str]]) -> Relation:
    """Build the relation containing exactly ``pairs`` (duplicates collapse)."""
    rows = [0] * carrier.n
    for pair in pairs:
        x, y = pair
        if x not in carrier or y not in carrier:
            raise UnknownLabel(f"pair {tuple(pair)!r} uses a label not in the carrier", tuple(pair))
        rows[carrier.position(x)] |= 1 << carrier.position(y)
    return Relation(carrier, tuple(rows))


def empty_relation(carrier: Carrier) -> Relation:
    return Relation(carrier, tuple([0] * carrier.n))


def diagonal_relation(carrier: Carrier) -> Relation:
    return Relation(carrier, diagonal_rows(carrier.n))


def full_relation(carrier: Carrier) -> Relation:
    full = (1 << carrier.n) - 1
    return Relation(carrier, tuple([full] * carrier.n))


def transform(relation: Relation, kind: str) -> Relation:
    """inverse (transpose), complement (negation) or diagonal_of_carrier."""
    n = relation.n
    if kind == "inverse":
        return Relation(relation.carrier, transpose_rows(relation.rows, n))
    if kind == "complement":
        return Relation(relation.carrier, complement_rows(relation.rows, n))
    if kind == "diagonal_of_carrier":
        return diagonal_relation(relation.carrier)
    raise ValidationError(f"unknown transform kind {kind!r}")


def combine(r: Relation, s: Relation, kind: str) -> Relation:
    """Element-wise union, intersection or difference of two relations."""
    if r.carrier != s.carrier:
        raise CarrierMismatch("relations must share a carrier")
    if kind == "union":
        rows = tuple(a | b for a, b in zip(r.rows, s.rows))
    elif kind == "intersection":
        rows = tuple(a & b for a, b in zip(r.rows, s.rows))
    elif kind == "difference":
        rows = tuple(a & ~b for a, b in zip(r.rows, s.rows))
    else:
        raise ValidationError(f"unknown combine kind {kind!r}")
    return Relation(r.carrier, rows)


def derived_parts(relation: Relation) -> DerivedParts:
    """Split R into symmetric part, asymmetric part, comparability and
    incomparability (complement of comparability)."""
    n = relation.n
    rows = relation.rows
    tr = transpose_rows(rows, n)
    full = (1 << n) - 1
    sym = tuple(a & b for a, b in zip(rows, tr))
    asym = tuple(a & ~b for a, b in zip(rows, tr))
    comp = tuple(a | b for a, b in zip(rows, tr))
    incomp = tuple(~c & full for c in comp)
    c = relation.carrier
    return DerivedParts(Relation(c, sym), Relation(c, asym), Relation(c, comp), Relation(c, incomp))


def check_properties(relation: Relation) -> PropertyReport:
    """Evaluate the predicate battery by exhaustive quantification.

    Every false flag is accompanied by the least violating tuple under
    carrier order.
    """
    rows, n = relation.rows, relation.n
    elems = relation.carrier.elements
    witnesses: dict[str, tuple[str, ...]] = {}
    results: dict[str, bool] = {}
    scans = {
        "reflexive": _reflexive_witness,
        "irreflexive": _irreflexive_witness,
        "symmetric": _symmetric_witness,
        "antisymmetric": _antisymmetric_witness,
        "asymmetric": _asymmetric_witness,
        "complete": _complete_witness,
        "transitive": _transitive_witness,
        "negatively_transitive": _neg_transitive_witness,
    }
    for name, scan in scans.items():
        w = scan(rows, n)
        results[name] = w is None
        if w is not None:
            witnesses[name] = tuple(elems[i] for i in w)
    return PropertyReport(witnesses=witnesses, **results)


def check_saturation(s: Relation, e: Relation, mode: str) -> SaturationCheck:
    """Check whether ``s`` is saturated with respect to ``e``.

    left : xEy and ySz imply xSz
    right: xSy and yEz imply xSz
    full : both
    weak : xEy and ySz imply some t with zEt and xSt

    ``e`` may be an arbitrary relation; nothing requires it to be an
    equivalence here.
    """
    if s.carrier != e.carrier:
        raise CarrierMismatch("relations must share a carrier")
    n = s.n
    elems = s.carrier.elements
    srows, erows = s.rows, e.rows

    def left_witness():
        for x in range(n):
            er = erows[x]
            while er:
                y = (er & -er).bit_length() - 1
                bad = srows[y] & ~srows[x]
                if bad:
                    return (x, y, (bad & -bad).bit_length() - 1)
                er &= er - 1
        return None

    def right_witness():
        for x in range(n):
            sr = srows[x]
            while sr:
                y = (sr & -sr).bit_length() - 1
                bad = erows[y] & ~srows[x]
                if bad:
                    return (x, y, (bad & -bad).bit_length() - 1)
                sr &= sr - 1
        return None

    def weak_witness():
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

    if mode == "left":
        w = left_witness()
    elif mode == "right":
        w = right_witness()
    elif mode == "full":
        w = left_witness() or right_witness()
    elif mode == "weak":
        w = weak_witness()
    else:
        raise ValidationError(f"unknown saturation mode {mode!r}")
    if w is None:
        return SaturationCheck(True, mode)
    return SaturationCheck(False, mode, tuple(elems[i] for i in w))


def is_E_complete(relation: Relation, equivalence: Relation) -> bool:
    """True when R with R inverted covers exactly the pairs outside the
    equivalence (validated to actually be one)."""
    if relation.carrier != equivalence.carrier:
        raise CarrierMismatch("relations must share a carrier")
    n = relation.n
    report = check_properties(equivalence)
    if not (report.reflexive and report.symmetric and report.transitive):
        raise NotAnEquivalence(
            "second argument must be an equivalence relation",
            next(iter(report.witnesses.values()), ()),
        )
    tr = transpose_rows(relation.rows, n)
    full = (1 << n) - 1
    return all(
        (relation.rows[i] | tr[i]) == (full & ~equivalence.rows[i]) for i in range(n)
    )


def transitive_closure(relation: Relation) -> Relation:
    """The minimal transitive relation containing R (paths of length >= 1)."""
    closed = closure_rows(relation.rows, relation.n)
    if not rows_transitive(closed, relation.n):
        raise InvariantViolation("closure-transitive", "closure output is not transitive")
    if any(b & ~a for a, b in zip(closed, relation.rows)):
        raise InvariantViolation("closure-contains-input", "closure output lost pairs")
    return Relation(relation.carrier, closed)


def restrict(relation: Relation, labels: Iterable[str]) -> Relation:
    """The restriction of R to a subset of its carrier (in carrier order)."""
    keep = sorted({relation.carrier.position(l) for l in labels})
    sub = Carrier(tuple(relation.carrier.elements[i] for i in keep))
    rows = []
    for i in keep:
        row = 0
        for new_j, j in enumerate(keep):
            if relation.rows[i] >> j & 1:
                row |= 1 << new_j
        rows.append(row)
    return Relation(sub, tuple(rows))


def is_preorder(relation: Relation) -> bool:
    return rows_reflexive(relation.rows, relation.n) and rows_transitive(relation.rows, relation.n)


def preorder_witness(relation: Relation) -> tuple[str, ...] | None:
    """None when R is a preorder, else a least tuple violating reflexivity
    or transitivity."""
    rows, n = relation.rows, relation.n
    elems = relation.carrier.elements
    w = _reflexive_witness(rows, n) or _transitive_witness(rows, n)
    return None if w is None else tuple(elems[i] for i in w)


# ---------------------------------------------------------------------------
# file formats

def relation_from_json_dict(payload: dict) -> Relation:
    if not isinstance(payload, dict) or "elements" not in payload or "pairs" not in payload:
        raise ParseError("relation JSON needs 'elements' and 'pairs' keys")
    elements = payload["elements"]
    if not _is_label_list(elements):
        raise ParseError("'elements' must be a list of strings", "elements")
    try:
        carrier = Carrier(tuple(elements))
    except ValidationError as exc:
        raise ParseError(str(exc), "elements") from exc
    pairs = payload["pairs"]
    if not isinstance(pairs, list):
        raise ParseError("'pairs' must be a list", "pairs")
    checked = []
    for k, pair in enumerate(pairs):
        if not _is_label_list(pair) or len(pair) != 2:
            raise ParseError("each pair must be a list of exactly two string labels", f"pairs[{k}]")
        checked.append((pair[0], pair[1]))
    return make_relation(carrier, checked)


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def relation_from_matrix_text(text: str) -> Relation:
    """Parse the matrix format: first line n, then n lines of 0/1 characters.

    Element labels default to e0..e{n-1}.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty matrix file", "line 1")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError("first line must be the carrier size", "line 1") from None
    if n < 1:
        raise ParseError("carrier size must be at least 1", "line 1")
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}", f"line {len(lines)}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if len(line) != n:
            raise ParseError(f"ragged row of length {len(line)}, expected {n}", f"line {i}")
        if set(line) - {"0", "1"}:
            raise ParseError("matrix rows may contain only 0 and 1", f"line {i}")
        row = 0
        for j, ch in enumerate(line):
            if ch == "1":
                row |= 1 << j
        rows.append(row)
    carrier = Carrier(tuple(f"e{i}" for i in range(n)))
    return Relation(carrier, tuple(rows))


def relation_to_matrix_text(relation: Relation) -> str:
    n = relation.n
    lines = [str(n)]
    for row in relation.rows:
        lines.append("".join("1" if row >> j & 1 else "0" for j in range(n)))
    return "\n".join(lines) + "\n"


def relation_to_json(relation: Relation) -> str:
    return json.dumps(relation.to_json_dict(), sort_keys=True)


def relations_equal(r: Relation, s: Relation) -> bool:
    return r.carrier == s.carrier and r.rows == s.rows


def all_relations(carrier: Carrier) -> Iterator[Relation]:
    """Every relation on the carrier, in lexicographic matrix order.

    Intended for exhaustive sweeps on tiny carriers; guarded by size.
    """
    n = carrier.n
    if n > 4:
        raise TooLarge(f"carrier size {n} exceeds the exhaustive-sweep cap", (str(n),))
    total_bits = n * n
    for code in range(1 << total_bits):
        rows = []
        for i in range(n):
            row = 0
            for j in range(n):
                # bit (i, j) read row-major from the most significant end so
                # ascending codes give lexicographic matrix order
                shift = total_bits - 1 - (i * n + j)
                if code >> shift & 1:
                    row |= 1 << j
            rows.append(row)
        yield Relation(carrier, tuple(rows))
