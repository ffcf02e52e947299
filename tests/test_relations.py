import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ordbubble import (
    Carrier,
    CarrierMismatch,
    EmptyCarrier,
    NotAnEquivalence,
    Relation,
    UnknownLabel,
    check_properties,
    check_saturation,
    combine,
    derived_parts,
    diagonal_relation,
    empty_relation,
    full_relation,
    is_E_complete,
    make_relation,
    transform,
    transitive_closure,
)
from ordbubble.relations import relation_from_json_dict, relation_from_matrix_text

AB = Carrier(("a", "b"))
ABC = Carrier(("a", "b", "c"))


def random_relation(rnd, labels):
    carrier = Carrier(labels)
    pairs = [(x, y) for x in labels for y in labels if rnd.random() < 0.4]
    return make_relation(carrier, pairs)


# ---------------------------------------------------------------------------
# construction

def test_carrier_rejects_empty_and_duplicates():
    with pytest.raises(EmptyCarrier):
        Carrier(())
    with pytest.raises(Exception):
        Carrier(("a", "a"))


def test_make_relation_empty():
    r = make_relation(AB, [])
    assert r.pairs() == []
    assert r.rows == (0, 0)


def test_make_relation_direct_and_duplicates():
    r = make_relation(AB, [("a", "a"), ("b", "b"), ("a", "b"), ("a", "b")])
    assert r.pair_count() == 3
    assert r.has("a", "b") and not r.has("b", "a")


def test_make_relation_unknown_label():
    single = Carrier(("a",))
    with pytest.raises(UnknownLabel):
        make_relation(single, [("a", "x")])


# ---------------------------------------------------------------------------
# transform / combine

def test_inverse_transposes():
    r = make_relation(AB, [("a", "b")])
    assert transform(r, "inverse").pairs() == [("b", "a")]


def test_complement_of_diagonal():
    comp = transform(diagonal_relation(AB), "complement")
    assert sorted(comp.pairs()) == [("a", "b"), ("b", "a")]


def test_diagonal_transform_ignores_input():
    r = make_relation(AB, [("a", "b")])
    assert transform(r, "diagonal_of_carrier") == diagonal_relation(AB)


def test_double_inverse_is_identity_randomized():
    rnd = random.Random(101)
    for _ in range(200):
        n = rnd.randint(1, 6)
        r = random_relation(rnd, tuple(f"e{i}" for i in range(n)))
        assert transform(transform(r, "inverse"), "inverse") == r


def test_union_with_diagonal():
    r = combine(diagonal_relation(AB), make_relation(AB, [("a", "b")]), "union")
    assert sorted(r.pairs()) == [("a", "a"), ("a", "b"), ("b", "b")]


def test_intersection_with_complement_is_empty():
    rnd = random.Random(7)
    for _ in range(50):
        r = random_relation(rnd, ("a", "b", "c"))
        assert combine(r, transform(r, "complement"), "intersection") == empty_relation(ABC)


def test_difference_with_symmetric_part_gives_asymmetric_part():
    rnd = random.Random(11)
    for _ in range(200):
        n = rnd.randint(1, 6)
        r = random_relation(rnd, tuple(f"e{i}" for i in range(n)))
        parts = derived_parts(r)
        assert combine(r, parts.symmetric_part, "difference") == parts.asymmetric_part


def test_combine_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        combine(empty_relation(AB), empty_relation(ABC), "union")


# ---------------------------------------------------------------------------
# derived parts

def test_derived_parts_trivial_relation():
    r = full_relation(AB)
    parts = derived_parts(r)
    assert parts.symmetric_part == r
    assert parts.asymmetric_part == empty_relation(AB)
    assert parts.incomparability == empty_relation(AB)


def test_derived_parts_of_chain():
    r = make_relation(
        ABC,
        [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")],
    )
    parts = derived_parts(r)
    assert parts.symmetric_part == diagonal_relation(ABC)
    assert sorted(parts.asymmetric_part.pairs()) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert parts.incomparability == empty_relation(ABC)


def test_incomparability_of_asymmetric_part_exhaustive():
    # incomparability of the strict part equals incomparability of R joined
    # with its symmetric part, for every relation on three elements
    for r in oracles.all_relations_on(("a", "b", "c")):
        parts = derived_parts(r)
        strict_parts = derived_parts(parts.asymmetric_part)
        expected = combine(parts.incomparability, parts.symmetric_part, "union")
        assert strict_parts.incomparability == expected


def test_derived_parts_pair_disjoint_union():
    rnd = random.Random(13)
    for _ in range(100):
        r = random_relation(rnd, ("a", "b", "c", "d"))
        parts = derived_parts(r)
        assert combine(parts.symmetric_part, parts.asymmetric_part, "intersection").pair_count() == 0
        assert combine(parts.symmetric_part, parts.asymmetric_part, "union") == r


# ---------------------------------------------------------------------------
# predicate battery

def test_negative_transitivity_of_transitive_tournament():
    f = make_relation(ABC, [("a", "b"), ("b", "c"), ("a", "c")])
    assert check_properties(f).negatively_transitive


def test_negative_transitivity_failure_witness():
    f = make_relation(ABC, [("a", "b")])
    report = check_properties(f)
    assert not report.negatively_transitive
    assert report.witnesses["negatively_transitive"] == ("a", "c", "b")


def test_diagonal_properties():
    report = check_properties(diagonal_relation(ABC))
    assert report.reflexive and report.symmetric and report.antisymmetric and report.transitive
    assert not report.complete
    single = check_properties(diagonal_relation(Carrier(("a",))))
    assert single.complete


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_battery_agrees_with_naive_oracles(n, data):
    labels = tuple(f"e{i}" for i in range(n))
    carrier = Carrier(labels)
    cells = [(x, y) for x in labels for y in labels]
    chosen = data.draw(st.sets(st.sampled_from(cells)) if cells else st.just(set()))
    r = make_relation(carrier, sorted(chosen))
    report = check_properties(r)
    assert report.reflexive == oracles.naive_reflexive(r)
    assert report.irreflexive == oracles.naive_irreflexive(r)
    assert report.symmetric == oracles.naive_symmetric(r)
    assert report.antisymmetric == oracles.naive_antisymmetric(r)
    assert report.asymmetric == oracles.naive_asymmetric(r)
    assert report.complete == oracles.naive_complete(r)
    assert report.transitive == oracles.naive_transitive(r)
    assert report.negatively_transitive == oracles.naive_negatively_transitive(r)


def test_every_false_flag_carries_a_valid_witness():
    rnd = random.Random(404)
    checked = 0
    for _ in range(120):
        n = rnd.randint(1, 5)
        r = random_relation(rnd, tuple(f"e{i}" for i in range(n)))
        report = check_properties(r)
        for flag, holds in report.flags().items():
            assert holds == (flag not in report.witnesses)
        w = report.witnesses
        if "reflexive" in w:
            (x,) = w["reflexive"]
            assert not r.has(x, x)
            checked += 1
        if "irreflexive" in w:
            (x,) = w["irreflexive"]
            assert r.has(x, x)
            checked += 1
        if "symmetric" in w:
            x, y = w["symmetric"]
            assert r.has(x, y) and not r.has(y, x)
            checked += 1
        if "antisymmetric" in w:
            x, y = w["antisymmetric"]
            assert r.has(x, y) and r.has(y, x) and x != y
            checked += 1
        if "asymmetric" in w:
            x, y = w["asymmetric"]
            assert r.has(x, y) and r.has(y, x)
            checked += 1
        if "transitive" in w:
            x, y, z = w["transitive"]
            assert r.has(x, y) and r.has(y, z) and not r.has(x, z)
            checked += 1
        if "negatively_transitive" in w:
            x, y, z = w["negatively_transitive"]
            assert r.has(x, z) and not r.has(x, y) and not r.has(y, z)
            checked += 1
        if "complete" in w:
            x, y = w["complete"]
            assert not r.has(x, y) and not r.has(y, x)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# saturation

def test_strict_part_saturated_for_all_small_preorders():
    for labels in (("a",), ("a", "b"), ("a", "b", "c")):
        for r in oracles.all_preorders_on(labels):
            parts = derived_parts(r)
            assert check_saturation(parts.asymmetric_part, parts.symmetric_part, "full").holds
    from ordbubble import enumerate_preorders

    for r in enumerate_preorders(4):
        parts = derived_parts(r)
        assert check_saturation(parts.asymmetric_part, parts.symmetric_part, "full").holds


def test_reflexive_subrelation_of_equivalence_is_weakly_saturated():
    rnd = random.Random(21)
    for _ in range(100):
        n = rnd.randint(1, 5)
        labels = tuple(f"e{i}" for i in range(n))
        e = rnd.choice(list(oracles.all_equivalences_on(labels)))
        sub_pairs = [(x, x) for x in labels]
        sub_pairs += [p for p in e.underlying.pairs() if rnd.random() < 0.5]
        s = make_relation(Carrier(labels), sub_pairs)
        assert check_saturation(s, e.underlying, "weak").holds


def test_left_saturation_witness():
    s = make_relation(ABC, [("a", "b")])
    e = make_relation(ABC, [("a", "a"), ("b", "b"), ("c", "c"), ("a", "c"), ("c", "a")])
    verdict = check_saturation(s, e, "left")
    assert not verdict.holds
    assert verdict.witness == ("c", "a", "b")


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_saturation_modes_agree_with_naive(n, rnd):
    labels = tuple(f"e{i}" for i in range(n))
    carrier = Carrier(labels)
    s = make_relation(carrier, [(x, y) for x in labels for y in labels if rnd.random() < 0.35])
    e = make_relation(carrier, [(x, y) for x in labels for y in labels if rnd.random() < 0.35])
    for mode in ("left", "right", "full", "weak"):
        assert check_saturation(s, e, mode).holds == oracles.naive_saturated(s, e, mode)


# ---------------------------------------------------------------------------
# relative completeness

def test_relative_completeness_examples():
    strict = make_relation(ABC, [("a", "b"), ("b", "c"), ("a", "c")])
    assert is_E_complete(strict, diagonal_relation(ABC))
    assert is_E_complete(empty_relation(ABC), full_relation(ABC))


def test_relative_completeness_requires_equivalence():
    with pytest.raises(NotAnEquivalence):
        is_E_complete(empty_relation(AB), make_relation(AB, [("a", "b")]))


def test_relative_completeness_reports_the_failing_equivalence_flag():
    # reflexive and symmetric but not transitive: the witness is the
    # transitivity one, not that of irreflexivity, which an equivalence
    # does not need
    chained = [(x, x) for x in "abc"] + [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
    with pytest.raises(NotAnEquivalence) as info:
        is_E_complete(empty_relation(ABC), make_relation(ABC, chained))
    assert str(info.value) == "second argument must be an equivalence relation"
    assert info.value.witness == ("a", "b", "c")


def test_preorder_complete_iff_strict_part_relatively_complete():
    for r in oracles.all_preorders_on(("a", "b", "c")):
        parts = derived_parts(r)
        assert oracles.naive_complete(r) == is_E_complete(parts.asymmetric_part, parts.symmetric_part)


# ---------------------------------------------------------------------------
# transitive closure

def test_closure_two_step_path():
    r = make_relation(ABC, [("a", "b"), ("b", "c")])
    assert sorted(transitive_closure(r).pairs()) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_closure_fixes_transitive_relations():
    rnd = random.Random(31)
    count = 0
    while count < 200:
        n = rnd.randint(1, 6)
        r = random_relation(rnd, tuple(f"e{i}" for i in range(n)))
        t = transitive_closure(r)
        assert transitive_closure(t) == t
        count += 1


def test_closure_matches_path_oracle_exhaustively():
    for r in oracles.all_relations_on(("a", "b", "c")):
        assert transitive_closure(r) == oracles.path_closure(r)


def test_closure_minimality_against_supersets():
    supersets = [
        t for t in oracles.all_relations_on(("a", "b", "c")) if oracles.naive_transitive(t)
    ]
    rnd = random.Random(41)
    sample = [
        r
        for r in oracles.all_relations_on(("a", "b", "c"))
        if rnd.random() < 0.06
    ]
    for r in sample:
        closed = transitive_closure(r)
        for t in supersets:
            contains_r = all(a & ~b == 0 for a, b in zip(r.rows, t.rows))
            if contains_r:
                assert all(a & ~b == 0 for a, b in zip(closed.rows, t.rows))


def test_closure_monotone():
    rnd = random.Random(43)
    for _ in range(100):
        n = rnd.randint(1, 5)
        labels = tuple(f"e{i}" for i in range(n))
        small = random_relation(rnd, labels)
        extra = random_relation(rnd, labels)
        big = combine(small, extra, "union")
        a = transitive_closure(small)
        b = transitive_closure(big)
        assert all(x & ~y == 0 for x, y in zip(a.rows, b.rows))


# ---------------------------------------------------------------------------
# logical identities (the table rows and their consequences)

def test_logic_identities_exhaustive_n3():
    for r in oracles.all_relations_on(("a", "b", "c")):
        _assert_identities(r)


def test_logic_identities_randomized():
    rnd = random.Random(47)
    for _ in range(300):
        n = rnd.randint(4, 6)
        _assert_identities(random_relation(rnd, tuple(f"e{i}" for i in range(n))))


def _assert_identities(r):
    inv = transform(r, "inverse")
    comp = transform(r, "complement")
    rep = check_properties(r)
    rep_inv = check_properties(inv)
    rep_comp = check_properties(comp)

    assert rep.symmetric == rep_inv.symmetric == rep_comp.symmetric
    assert rep.asymmetric == rep_inv.asymmetric == rep_comp.complete
    assert rep.transitive == rep_inv.transitive == rep_comp.negatively_transitive
    assert rep.negatively_transitive == rep_inv.negatively_transitive == rep_comp.transitive

    if rep.reflexive and rep.antisymmetric and rep.negatively_transitive:
        assert rep.transitive
    if rep.asymmetric and rep.negatively_transitive:
        assert rep.transitive
    if rep.asymmetric:
        assert rep.irreflexive
    if rep.irreflexive and rep.transitive:
        assert rep.asymmetric
    if rep.complete:
        assert rep.reflexive
    if rep.transitive and rep.complete:
        assert rep.negatively_transitive
    assert (rep.asymmetric and rep.transitive) == (rep.irreflexive and rep.transitive)

    parts = derived_parts(r)
    sym, asym = parts.symmetric_part, parts.asymmetric_part
    u, e = parts.comparability, parts.incomparability

    assert transform(sym, "complement") == derived_parts(comp).comparability
    assert derived_parts(comp).symmetric_part == e
    assert transform(asym, "complement") == combine(comp, inv, "union")
    assert derived_parts(asym).incomparability == combine(e, sym, "union")

    assert check_properties(sym).symmetric
    assert check_properties(u).symmetric
    assert check_properties(e).symmetric
    assert check_properties(asym).asymmetric
    if rep.transitive:
        assert check_properties(sym).transitive
        assert check_properties(asym).transitive
    if rep.negatively_transitive:
        assert check_properties(e).transitive


def test_complete_preorder_three_characterizations():
    for labels in (("a", "b"), ("a", "b", "c")):
        for r in oracles.all_preorders_on(labels):
            comp = transform(r, "complement")
            rep_comp = check_properties(comp)
            side_one = check_properties(r).complete
            side_two = rep_comp.asymmetric and rep_comp.negatively_transitive
            f = transform(transform(r, "inverse"), "complement")
            parts = derived_parts(r)
            side_three = (
                parts.symmetric_part == derived_parts(f).incomparability
                and parts.asymmetric_part == f
            )
            assert side_one == side_two == side_three


# ---------------------------------------------------------------------------
# file formats

def test_relation_json_round_trip():
    r = make_relation(ABC, [("a", "b"), ("c", "c")])
    assert relation_from_json_dict(r.to_json_dict()) == r


def test_matrix_format_round_trip():
    from ordbubble.relations import relation_to_matrix_text

    r = relation_from_matrix_text("3\n010\n001\n000\n")
    assert r.carrier.elements == ("e0", "e1", "e2")
    assert sorted(r.pairs()) == [("e0", "e1"), ("e1", "e2")]
    assert relation_from_matrix_text(relation_to_matrix_text(r)) == r


def test_matrix_format_rejects_ragged_rows():
    from ordbubble.errors import ParseError

    with pytest.raises(ParseError):
        relation_from_matrix_text("2\n01\n0\n")
    with pytest.raises(ParseError):
        relation_from_matrix_text("2\n01\n02\n")


def test_relation_json_rejects_unknown_labels():
    with pytest.raises(UnknownLabel):
        relation_from_json_dict({"elements": ["a"], "pairs": [["a", "zz"]]})
