"""Finite binary relations as boolean matrices packed into per-row bitmasks.

A relation on a carrier of ``n`` labelled elements is stored as ``n``
integers; bit ``j`` of ``rows[i]`` says whether the pair ``(e_i, e_j)``
belongs to the relation.  Rows being machine words makes the whole derived
calculus (inverse, complement, symmetric/asymmetric parts, closure, the
predicate battery) word-parallel, which keeps exhaustive sweeps over all
relations of a small carrier cheap.

This module holds the package's one row-kernel layer: a witness kernel per
property (reflexive through negatively transitive) and one composition
kernel, ``_compose_witness``, behind transitivity and saturation.
``check_properties``, ``check_saturation`` and the sweep batteries all call
these kernels; none of them keeps a copy.  A kernel returns the
lexicographically least violating tuple of indices in carrier order, or
None, so reports are reproducible and a predicate is ``kernel(...) is
None``.

All values are immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
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
# row-level kernels (see the module docstring).  Kernels that compare rows
# with columns take the transpose ``tr``, so a caller that runs several of
# them computes it once.

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


def _least_pair(masks: Iterable[int]) -> tuple[int, int] | None:
    """(i, j) for the first nonzero mask i and its lowest bit j."""
    for i, mask in enumerate(masks):
        if mask:
            return (i, (mask & -mask).bit_length() - 1)
    return None


def _level_masks(keys) -> tuple[dict, dict]:
    """Map each distinct per-position key to the mask of positions holding
    it, and to the mask of positions holding a greater key."""
    level: dict = {}
    for i, key in enumerate(keys):
        level[key] = level.get(key, 0) | 1 << i
    above, acc = {}, 0
    for key in sorted(level, reverse=True):
        above[key], acc = acc, acc | level[key]
    return level, above


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


def _symmetric_witness(rows, tr, n):
    return _least_pair(r & ~t for r, t in zip(rows, tr))


def _antisymmetric_witness(rows, tr, n):
    return _least_pair(r & t & ~(1 << i) for i, (r, t) in enumerate(zip(rows, tr)))


def _asymmetric_witness(rows, tr, n):
    return _least_pair(r & t for r, t in zip(rows, tr))


def _complete_witness(rows, tr, n):
    full = (1 << n) - 1
    return _least_pair(full & ~(r | t) for r, t in zip(rows, tr))


def _compose_witness(a, b, c, n):
    """The least (x, y, z) with a[x][y], b[y][z] and not c[x][z]; None
    exactly when the composite a.b lies inside c."""
    for x, row in enumerate(a):
        keep = c[x]
        while row:
            y = (row & -row).bit_length() - 1
            bad = b[y] & ~keep
            if bad:
                return (x, y, (bad & -bad).bit_length() - 1)
            row &= row - 1
    return None


def _transitive_witness(rows, n):
    return _compose_witness(rows, rows, rows, n)


def _neg_transitive_witness(rows, n):
    """xRz implies xRy or yRz: for each x, each y outside row x in order,
    the least z in row x that row y misses."""
    full = (1 << n) - 1
    for x, row in enumerate(rows):
        outside = full & ~row
        while outside:
            y = (outside & -outside).bit_length() - 1
            bad = row & ~rows[y]
            if bad:
                return (x, y, (bad & -bad).bit_length() - 1)
            outside &= outside - 1
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


# Every kernel under one signature.  Each lambda looks its kernel up when called,
# so a kernel rebound on this module, by a test or a tracer, is the one that runs.
_KERNELS = {
    "reflexive": lambda rows, tr, n: _reflexive_witness(rows, n),
    "irreflexive": lambda rows, tr, n: _irreflexive_witness(rows, n),
    "symmetric": lambda rows, tr, n: _symmetric_witness(rows, tr, n),
    "antisymmetric": lambda rows, tr, n: _antisymmetric_witness(rows, tr, n),
    "asymmetric": lambda rows, tr, n: _asymmetric_witness(rows, tr, n),
    "complete": lambda rows, tr, n: _complete_witness(rows, tr, n),
    "transitive": lambda rows, tr, n: _transitive_witness(rows, n),
    "negatively_transitive": lambda rows, tr, n: _neg_transitive_witness(rows, n),
}
_NEEDS_TRANSPOSE = frozenset({"symmetric", "antisymmetric", "asymmetric", "complete"})


def _witnesses(relation: Relation, flags: Iterable[str]) -> Iterator[tuple[str, tuple | None]]:
    """(flag, least witness as indices or None) for each named flag in order;
    the transpose is computed when the first flag that needs it comes up."""
    rows, n = relation.rows, relation.n
    tr = None
    for flag in flags:
        if tr is None and flag in _NEEDS_TRANSPOSE:
            tr = transpose_rows(rows, n)
        yield flag, _KERNELS[flag](rows, tr, n)


def _first_violation(relation: Relation, flags: Iterable[str]) -> tuple[str, tuple[str, ...]] | None:
    """The first of ``flags`` that fails and its least witness as labels, or
    None when all hold.  Runs only the kernels up to the first failure."""
    for flag, w in _witnesses(relation, flags):
        if w is not None:
            return flag, tuple(relation.carrier.elements[i] for i in w)
    return None


def check_properties(relation: Relation) -> PropertyReport:
    """Evaluate the predicate battery with the witness kernels.

    Every false flag is accompanied by the least violating tuple under
    carrier order.
    """
    found = dict(_witnesses(relation, _FLAG_NAMES))
    elems = relation.carrier.elements
    witnesses = {name: tuple(elems[i] for i in w) for name, w in found.items() if w is not None}
    return PropertyReport(witnesses=witnesses, **{name: w is None for name, w in found.items()})


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
        w = _compose_witness(erows, srows, srows, n)
    elif mode == "right":
        w = _compose_witness(srows, erows, srows, n)
    elif mode == "full":
        w = _compose_witness(erows, srows, srows, n) or _compose_witness(srows, erows, srows, n)
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
    if _transitive_witness(closed, relation.n) is not None:
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


def all_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Every relation on n elements as a row tuple, in lexicographic matrix
    order: row 0 varies slowest, and in each row column 0 is the most
    significant bit.  For exhaustive sweeps; capped at n = 4."""
    if n > 4:
        raise TooLarge(f"carrier size {n} exceeds the exhaustive-sweep cap", (str(n),))
    row_values = [int(f"{code:0{n}b}"[::-1], 2) for code in range(1 << n)]
    return product(row_values, repeat=n)
