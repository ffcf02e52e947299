"""The word-parallel witness kernels against the bit-probe scans they
replaced (kept in ``oracles``): identical least witnesses for every
property and saturation mode, and identical booleans for the predicates
the per-relation sweep batteries used, on every relation with n <= 4 and
on seeded relations and preorders up to n = 16.  The sweep's truth tables
against the kernels: bit k of each property table is set exactly when the
kernel finds no witness in relation k."""

import random
from itertools import product

import oracles
from ordbubble import Carrier, Relation, check_properties, check_saturation
from ordbubble import relations, sweep
from ordbubble.sweep import random_preorder_rows

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
