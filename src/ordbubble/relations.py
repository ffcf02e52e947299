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

From a measured carrier size on, ``_FAST_MIN_N``, three kernels go
word-parallel.  Below it the bit loops run; the loops are the small-n path
and the oracle the fast paths are tested against.

- The transpose packs the rows into one int and swaps blocks, one delta
  swap per bit of the padded size (Warren, *Hacker's Delight*, 2nd ed.,
  section 7-3).  A ``Relation`` computes its transpose once, on first use.
- The Boolean product ``_product(a, b)`` looks each byte of a row of ``a``
  up in a 256-entry table of unions of eight rows of ``b``, the
  "Four Russians" method (Arlazarov, Dinic, Kronrod and Faradzev, 1970).
  ``_compose_witness`` accepts when every product row lies inside its row
  of ``c``, and otherwise scans from the first row that does not.  The
  quotient and coproduct rows are products too.
- Negative transitivity is accepted when the rows are nested and each row
  holds the positions whose rows are smaller, as the rows of a strict weak
  order are (Fishburn, *Utility Theory for Decision Making*, 1970);
  otherwise the scan runs.

Since a fast path only accepts, and the scan that follows a refusal is the
loop, each kernel's witness is the loop's by construction.

All values are immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import product
from operator import or_
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

    @cached_property
    def _tr(self) -> tuple[int, ...]:
        """The transpose (row j is column j), computed on first use unless
        the operation that built this relation already knew it."""
        return transpose_rows(self.rows, len(self.rows))

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

# The carrier size from which the word-parallel paths may run; below it the
# loops always run.  Loop against fast path, in us per call (medians of 5
# runs on a 2-CPU host, Python 3.11), on dense rows (a bubble relation, its
# strict part) and sparse ones (a poset part-way through extension):
#                       n = 16      24        32         64
#   transpose   dense     26 / 10   54 / 19  131 / 23   472 / 44
#               sparse    15 / 11   10 / 14   41 / 21    90 / 48
#   compose     dense     24 / 47   50 / 75  154 / 103  654 / 215
#   neg-trans   dense     26 / 14   53 / 17  159 / 27   601 / 57
# From it on, ``transpose_rows`` and ``_tables_pay`` still leave rows too
# sparse to pay to the loops; the nested-rows test adds 10-30 us where the
# scan refuses at once.  Every carrier of 14 or fewer elements runs the
# loops.
_FAST_MIN_N = 32


def transpose_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The n columns of ``rows`` as rows; ``rows`` may be rectangular, with
    any number of rows of n bits.  The rows are packed where that pays: the
    loop costs about 0.5 us per set bit, the packed transpose about 3 ns per
    cell (0.2 ms at n = 256, 13 ms at n = 2048), so a sparse poset's rows at
    n = 2048 (4 against 13 ms) stay with the loop."""
    size = max(len(rows), n)
    if size >= _FAST_MIN_N and 160 * sum(map(int.bit_count, rows)) >= size * size:
        return _transpose_packed(rows, n)
    return _transpose_loop(rows, n)


def _transpose_loop(rows, n):
    cols = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            j = (row & -row).bit_length() - 1
            cols[j] |= bit
            row &= row - 1
    return tuple(cols)


def _transpose_packed(rows, n):
    """Pack the rows into one size x size bit matrix (row i at bit i*size,
    size a power of two), swap the off-diagonal blocks for each bit of the
    size from the highest down, and unpack the first n rows."""
    size = 1 << (max(len(rows), n, 8) - 1).bit_length()
    width = size // 8
    x = int.from_bytes(b"".join(row.to_bytes(width, "little") for row in rows), "little")
    for shift, mask in _swap_steps(size):
        t = (x ^ x >> shift) & mask
        x ^= t | t << shift
    data = x.to_bytes(size * width, "little")
    return tuple(int.from_bytes(data[j * width : (j + 1) * width], "little") for j in range(n))


@cache
def _swap_steps(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each block size s = size/2, ..., 1: the mask holds
    the bits (i, j) with bit s of j set and bit s of i clear, whose partner
    (i + s, j - s) sits ``shift`` = s * (size - 1) bits higher.  Built on
    the first transpose of each padded size and kept."""
    steps = []
    s = size >> 1
    while s:
        mask, span = ((1 << s) - 1) << s, 2 * s  # one row: columns with bit s
        while span < size:
            mask |= mask << span
            span *= 2
        height = 1  # s rows of it, then s empty rows, repeated
        while height < s:
            mask |= mask << height * size
            height *= 2
        period = 2 * s
        while period < size:
            mask |= mask << period * size
            period *= 2
        steps.append((s * (size - 1), mask))
        s >>= 1
    return tuple(steps)


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


def _union_of(mask: int, masks) -> int:
    """The union of ``masks[j]`` over the set bits j of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def _product(a, b) -> Iterator[int]:
    """The rows of the Boolean product a.b, lazily: row x is the union of
    ``b[y]`` over the set bits y of ``a[x]`` (each below ``len(b)``).  Per
    byte of the inner index, a table of the 256 unions of its rows of b."""
    width = (len(b) + 7) // 8
    tables = []
    for start in range(0, len(b), 8):
        table = [0]
        for row in b[start : start + 8]:
            table += [v | row for v in table]
        tables.append(table)
    getitem = list.__getitem__
    return (reduce(or_, map(getitem, tables, row.to_bytes(width, "little"))) for row in a)


def _tables_pay(a, b) -> bool:
    """Whether ``_product(a, b)`` beats the bit loop, which it does when a
    holds at least len(b) * (10 + len(a) / 32) bits: the loop costs about
    0.4 us per bit of a, the tables 0.13 us per entry (32 per row of b)
    plus 0.1 us per byte looked up (len(b) / 8 per row of a)."""
    return 32 * sum(map(int.bit_count, a)) >= len(b) * (320 + len(a))


def _unions(a, b) -> Iterable[int]:
    """The rows of a.b, by ``_product`` where the tables pay, else by the
    bit loop."""
    if len(b) >= _FAST_MIN_N and _tables_pay(a, b):
        return _product(a, b)
    return [_union_of(row, b) for row in a]


def _product_gap(a, b, c) -> int | None:
    """The first x at which row x of a.b leaves ``c[x]``, or None."""
    return next((x for x, (row, keep) in enumerate(zip(_product(a, b), c)) if row & ~keep), None)


def _compose_witness(a, b, c, n):
    """The least (x, y, z) with a[x][y], b[y][z] and not c[x][z]; None
    exactly when the composite a.b lies inside c."""
    start = 0
    if n >= _FAST_MIN_N and _tables_pay(a, b):
        start = _product_gap(a, b, c)
        if start is None:
            return None
    for x, row in enumerate(a[start:], start):
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


def _nested_rows(rows) -> bool:
    """True when the rows form a chain under inclusion and each row holds
    every position whose row is smaller.  Then xRz and not xRy give y a row
    at least x's, so one holding z: R is negatively transitive.  The strict
    weak orders all pass."""
    keys = [-row.bit_count() for row in rows]
    _, smaller = _level_masks(keys)
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return not any(rows[y] & ~rows[x] for x, y in zip(order, order[1:])) and not any(
        smaller[key] & ~row for key, row in zip(keys, rows)
    )


def _neg_transitive_witness(rows, n):
    """xRz implies xRy or yRz: for each x, each y outside row x in order,
    the least z in row x that row y misses."""
    if n >= _FAST_MIN_N and _nested_rows(rows):
        return None
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
        return _with_transpose(relation.carrier, relation._tr, relation.rows)
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
    rows, tr = relation.rows, relation._tr
    full = (1 << relation.n) - 1
    sym = tuple(a & b for a, b in zip(rows, tr))
    asym = tuple(a & ~b for a, b in zip(rows, tr))
    comp = tuple(a | b for a, b in zip(rows, tr))
    incomp = tuple(~c & full for c in comp)
    c = relation.carrier
    # each part but the asymmetric one is symmetric, so its own transpose
    return DerivedParts(
        _with_transpose(c, sym, sym),
        _with_transpose(c, asym, tuple(b & ~a for a, b in zip(rows, tr))),
        _with_transpose(c, comp, comp),
        _with_transpose(c, incomp, incomp),
    )


def _with_transpose(carrier: Carrier, rows: tuple[int, ...], tr: tuple[int, ...]) -> Relation:
    """A relation whose transpose ``tr`` its builder already knows."""
    relation = Relation(carrier, rows)
    relation.__dict__["_tr"] = tr
    return relation


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
            tr = relation._tr
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
    if violation := _first_violation(equivalence, ("reflexive", "symmetric", "transitive")):
        raise NotAnEquivalence("second argument must be an equivalence relation", violation[1])
    full = (1 << relation.n) - 1
    return all(
        r | t == full & ~e for r, t, e in zip(relation.rows, relation._tr, equivalence.rows)
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
