"""The word-parallel witness kernels against the bit-probe scans they
replaced (kept in ``oracles``): identical least witnesses for every
property and saturation mode, and identical booleans for the predicates
the per-relation sweep batteries used, on every relation with n <= 4 and
on seeded relations and preorders up to n = 16.  The sweep's truth tables
against the kernels: bit k of each property table is set exactly when the
kernel finds no witness in relation k.

The word-parallel paths, called directly past the size dispatch, against
the loops at every size: the packed transpose (rectangular ones too), the
table product and its composition accept, and the nested-rows accept for
negative transitivity, on every relation with n <= 4 and on seeded dense,
sparse, random and tampered relations around each threshold and up to
n = 256; and the quotient rows against the label-level loops."""

import random
from itertools import product

import pytest

import oracles
from ordbubble import (
    Carrier,
    EquivalenceRelation,
    Relation,
    bubble_compose,
    check_properties,
    check_saturation,
    combine,
    derived_parts,
    factor_relation,
    szpilrajn_step,
    weak_factor_relation,
)
from ordbubble import relations, sweep
from ordbubble.sweep import random_equivalence_rows, random_preorder_rows

KERNELS = {
    "reflexive": lambda rows, tr, n: relations._reflexive_witness(rows, n),
    "irreflexive": lambda rows, tr, n: relations._irreflexive_witness(rows, n),
    "symmetric": relations._symmetric_witness,
    "antisymmetric": relations._antisymmetric_witness,
    "asymmetric": relations._asymmetric_witness,
    "complete": relations._complete_witness,
    "transitive": lambda rows, tr, n: relations._transitive_witness(rows, n),
    "negatively_transitive": lambda rows, tr, n: relations._neg_transitive_witness(rows, n),
}
MODES = ("left", "right", "full", "weak")


def assert_kernels_match(rows, n):
    tr = relations.transpose_rows(rows, n)
    booleans = oracles.sweep_predicates(rows, n)
    for flag, scan in oracles.SCANS.items():
        witness = KERNELS[flag](rows, tr, n)
        assert witness == scan(rows, n), (flag, rows)
        assert (witness is None) == booleans[flag], (flag, rows)
    loop = relations._transpose_loop(rows, n)
    transitive = oracles.scan_transitive(rows, n)
    assert_fast_paths_match(rows, n, loop, transitive, oracles.scan_negatively_transitive(rows, n))


def assert_fast_paths_match(rows, n, tr, transitive, neg_transitive):
    """The fast paths against the loops' transpose and transitivity and
    negative-transitivity witnesses of ``rows``.  The nested-rows test may
    refuse a negatively transitive relation, but never accepts one with a
    witness, and decides exactly on transitive ones."""
    assert relations._transpose_packed(rows, n) == tr, rows
    assert list(relations._product(rows, rows)) == [relations._union_of(row, rows) for row in rows], rows
    assert relations._product_gap(rows, rows, rows) == (transitive and transitive[0]), rows
    nested = relations._nested_rows(rows)
    assert not nested or neg_transitive is None, rows
    if transitive is None:
        assert nested == (neg_transitive is None), rows


def assert_saturation_matches(s_rows, e_rows, carrier):
    n = carrier.n
    s, e = Relation(carrier, s_rows), Relation(carrier, e_rows)
    for mode in MODES:
        witness = oracles.scan_saturation(s_rows, e_rows, n, mode)
        check = check_saturation(s, e, mode)
        expected = None if witness is None else tuple(carrier.elements[i] for i in witness)
        assert (check.holds, check.witness) == (witness is None, expected), (mode, s_rows, e_rows)
    assert oracles._saturated(s_rows, e_rows, n) == oracles.sweep_saturated(s_rows, e_rows, n)


def test_kernels_match_scans_on_every_small_relation():
    checked = 0
    for n in range(1, 5):
        for rows in product(range(1 << n), repeat=n):
            assert_kernels_match(rows, n)
            checked += 1
    assert checked == 2 + 16 + 512 + 65536


def test_saturation_matches_scans_on_small_relations():
    # every (s, e) pair up to n = 2; from n = 3 on, every relation as s,
    # paired with a relation that a fixed stride through the list picks
    checked = 0
    for n in range(1, 5):
        carrier = Carrier(tuple(f"e{i}" for i in range(n)))
        every = list(product(range(1 << n), repeat=n))
        for k, s_rows in enumerate(every):
            partners = every if n <= 2 else (every[(k * 7_919 + 13) % len(every)],)
            for e_rows in partners:
                assert_saturation_matches(s_rows, e_rows, carrier)
                checked += 1
    assert checked == 4 + 256 + 512 + 65536


def test_kernels_match_scans_on_seeded_relations_and_preorders():
    rnd = random.Random(4_040)
    for k in range(20_000):
        n = rnd.randint(1, 16)
        if k % 2:
            rows = random_preorder_rows(rnd, n)
        elif k % 4:
            rows = tuple(rnd.getrandbits(n) for _ in range(n))
        else:
            rows = tuple(rnd.getrandbits(n) & rnd.getrandbits(n) & rnd.getrandbits(n) for _ in range(n))
        assert_kernels_match(rows, n)
        if k % 10 == 0:
            carrier = Carrier(tuple(f"e{i}" for i in range(n)))
            tr = relations.transpose_rows(rows, n)
            strict = tuple(a & ~b for a, b in zip(rows, tr))
            sym = tuple(a & b for a, b in zip(rows, tr))
            assert_saturation_matches(strict, sym, carrier)
            assert_saturation_matches(rows, tuple(rnd.getrandbits(n) for _ in range(n)), carrier)


def test_check_properties_reports_the_scan_witnesses():
    rnd = random.Random(77)
    for _ in range(500):
        n = rnd.randint(1, 9)
        carrier = Carrier(tuple(f"e{i}" for i in range(n)))
        rows = random_preorder_rows(rnd, n) if rnd.random() < 0.5 else tuple(rnd.getrandbits(n) for _ in range(n))
        report = check_properties(Relation(carrier, rows))
        for flag, scan in oracles.SCANS.items():
            witness = scan(rows, n)
            assert getattr(report, flag) == (witness is None)
            if witness is not None:
                assert report.witnesses[flag] == tuple(carrier.elements[i] for i in witness)


def test_property_tables_match_kernels_on_every_small_relation():
    for n in range(1, 5):
        every = list(relations.all_rows(n))
        T, full = sweep._pack(every, n)
        # all_rows numbers pair (i, j) as bit (n-1-i)*n + (n-1-j) of k
        cells = [(i, j) for i in reversed(range(n)) for j in reversed(range(n))]
        assert (T, full) == sweep._variables(cells, n)
        tables = {flag: getattr(sweep, f"_{flag}")(T) & full for flag in KERNELS}
        for k, rows in enumerate(every):
            tr = relations.transpose_rows(rows, n)
            for flag, kernel in KERNELS.items():
                assert (tables[flag] >> k & 1) == (kernel(rows, tr, n) is None), (flag, rows)


def test_saturation_tables_match_kernels_on_every_equivalence():
    for n in range(1, 5):
        pairs = oracles.equivalence_free_pairs(n)
        for e_rows, E, F, full in sweep._equivalence_tables(n):
            table = sweep._saturated(F, E) & full
            for k in range(full.bit_length()):
                pair_e, f_rows = next(pairs)
                assert pair_e == e_rows
                holds = (
                    relations._compose_witness(e_rows, f_rows, f_rows, n) is None
                    and relations._compose_witness(f_rows, e_rows, f_rows, n) is None
                )
                assert (table >> k & 1) == holds, (e_rows, f_rows)
        assert next(pairs, None) is None


# ---------------------------------------------------------------------------
# the fast paths past their thresholds

FAST_SIZES = sorted({relations._FAST_MIN_N + d for d in (-1, 0, 1)} | {63, 64, 65, 100, 256})


def loop_results(monkeypatch, rows, n, e_rows):
    """The loops' transpose, transitivity and negative-transitivity
    witnesses, and the witnesses of e.s in s and s.e in s with s = rows."""
    with monkeypatch.context() as m:
        m.setattr(relations, "_FAST_MIN_N", 1 << 30)
        return (
            relations.transpose_rows(rows, n),
            relations._transitive_witness(rows, n),
            relations._neg_transitive_witness(rows, n),
            relations._compose_witness(e_rows, rows, rows, n),
            relations._compose_witness(rows, e_rows, rows, n),
        )


def tampered(rnd, rows, n):
    """A copy with one bit flipped."""
    i, j = rnd.randrange(n), rnd.randrange(n)
    return tuple(row ^ (1 << j if k == i else 0) for k, row in enumerate(rows))


def seeded_inputs(n):
    """Rows of a bubble relation and its strict part, of a sparse poset
    part-way through extension and its strict part, of uniformly random and
    of sparse random relations, and a one-bit-tampered copy of each; each
    with an equivalence (the glue, the symmetric part or a random one)."""
    rnd = random.Random(n)
    bubbles = oracles.label_bubble_compose(oracles.shuffled_bubble_system(rnd, n))
    parts = derived_parts(bubbles)
    glue = combine(parts.symmetric_part, parts.incomparability, "union").rows
    poset = oracles.sparse_poset(rnd, n)
    for _ in range(n // 4):
        i, j = next(
            (i, j) for i in range(n) for j in range(n) if i != j and not (poset.rows[i] | poset._tr[i]) >> j & 1
        )
        poset = szpilrajn_step(poset, f"x{i}", f"x{j}")
    equivalence = random_equivalence_rows(rnd, n)
    inputs = [
        (bubbles.rows, glue),
        (parts.asymmetric_part.rows, glue),
        (poset.rows, derived_parts(poset).symmetric_part.rows),
        (derived_parts(poset).asymmetric_part.rows, equivalence),
        (tuple(rnd.getrandbits(n) for _ in range(n)), equivalence),
        (tuple(rnd.getrandbits(n) & rnd.getrandbits(n) & rnd.getrandbits(n) for _ in range(n)), equivalence),
    ]
    return inputs + [(tampered(rnd, rows, n), e_rows) for rows, e_rows in inputs]


@pytest.mark.parametrize("n", FAST_SIZES)
def test_fast_paths_match_the_loops_around_each_threshold(n, monkeypatch):
    inputs = seeded_inputs(n)
    for k, (rows, e_rows) in enumerate(inputs):
        tr, transitive, neg_transitive, left, right = loop_results(monkeypatch, rows, n, e_rows)
        assert_fast_paths_match(rows, n, tr, transitive, neg_transitive)
        assert relations._product_gap(e_rows, rows, rows) == (left and left[0]), k
        assert relations._product_gap(rows, e_rows, rows) == (right and right[0]), k
        # and the dispatched kernels report the loops' witnesses
        assert relations.transpose_rows(rows, n) == tr, k
        assert relations._transitive_witness(rows, n) == transitive, k
        assert relations._neg_transitive_witness(rows, n) == neg_transitive, k
        assert relations._compose_witness(e_rows, rows, rows, n) == left, k
        assert relations._compose_witness(rows, e_rows, rows, n) == right, k
    # the strict part of a bubble relation is a strict weak order
    assert relations._nested_rows(inputs[1][0])


def random_row(rnd, n, count):
    """The AND of ``count`` uniformly random rows of n bits."""
    row = (1 << n) - 1
    for _ in range(count):
        row &= rnd.getrandbits(n)
    return row


def test_packed_transpose_of_rectangular_matrices():
    rnd = random.Random(434)
    shapes = [(m, n) for m in (1, 7, 31, 33, 64, 100) for n in (1, 9, 32, 65, 130)] + [(256, 40), (40, 256)]
    for m, n in shapes:
        for density in (1, 3):
            rows = tuple(random_row(rnd, n, density) for _ in range(m))
            loop = relations._transpose_loop(rows, n)
            assert relations._transpose_packed(rows, n) == loop == relations.transpose_rows(rows, n), (m, n)
            assert relations._transpose_packed(loop, m) == rows, (m, n)


@pytest.mark.parametrize("n", [64, 100, 256])
def test_quotient_rows_match_label_loops_past_the_product_threshold(n):
    rnd = random.Random(n)
    system = oracles.shuffled_bubble_system(rnd, n)
    relation = oracles.label_bubble_compose(system)
    assert bubble_compose(system) == relation
    parts = derived_parts(relation)
    glue = EquivalenceRelation(combine(parts.symmetric_part, parts.incomparability, "union"))
    strict = parts.asymmetric_part
    assert factor_relation(strict, glue).relation == oracles.label_factor_relation(strict, glue)
    assert weak_factor_relation(relation, glue).relation == oracles.label_weak_factor_relation(relation, glue)
    # sparse rows, which the bit loop serves, and uniformly random ones
    carrier = relation.carrier
    other = EquivalenceRelation(Relation(carrier, random_equivalence_rows(rnd, n)))
    for rows in (oracles.sparse_poset(rnd, n).rows, tuple(rnd.getrandbits(n) for _ in range(n))):
        r = Relation(carrier, rows)
        assert weak_factor_relation(r, other).relation == oracles.label_weak_factor_relation(r, other)
