import random

import pytest

import oracles
from ordbubble import (
    Carrier,
    EquivalenceRelation,
    InvalidSystem,
    NotAPreorder,
    NotNegativelyTransitive,
    PairInvalid,
    Relation,
    TooLarge,
    bourbaki_factor,
    bubble_compose,
    bubble_decompose,
    check_properties,
    check_saturation,
    classes,
    combine,
    coproduct_preorder,
    derived_parts,
    diagonal_relation,
    empty_relation,
    enumerate_preorders,
    full_relation,
    generalized_utility,
    join_pair,
    make_relation,
    split_preorder,
)
from ordbubble.structure import Bubble, BubbleSystem, Loset, bubble_system_from_json_dict
from ordbubble.sweep import random_bubble_system, random_preorder_rows

ABC = Carrier(("a", "b", "c"))


def preorder(carrier, pairs):
    return make_relation(carrier, [(x, x) for x in carrier.elements] + list(pairs))


def two_bubble_example():
    carrier = Carrier(("x1", "x2", "y"))
    return preorder(carrier, [("x1", "y"), ("x2", "y")])


# ---------------------------------------------------------------------------
# split / join

def test_split_diagonal():
    split = split_preorder(diagonal_relation(ABC))
    assert split.equivalence.underlying == diagonal_relation(ABC)
    assert split.strict == empty_relation(ABC)


def test_split_trivial():
    split = split_preorder(full_relation(ABC))
    assert split.equivalence.underlying == full_relation(ABC)
    assert split.strict == empty_relation(ABC)


def test_split_requires_preorder():
    with pytest.raises(NotAPreorder):
        split_preorder(make_relation(ABC, [("a", "b")]))


def test_join_split_identity_exhaustive():
    count = 0
    for r in enumerate_preorders(3):
        split = split_preorder(r)
        assert join_pair(split.equivalence, split.strict) == r
        count += 1
    assert count == 29


def test_join_split_identity_sampled_larger():
    rnd = random.Random(53)
    sample = [r for r in enumerate_preorders(4) if rnd.random() < 0.35]
    assert sample
    for r in sample:
        split = split_preorder(r)
        assert join_pair(split.equivalence, split.strict) == r


def test_join_linear_order():
    strict = make_relation(ABC, [("a", "b"), ("b", "c"), ("a", "c")])
    joined = join_pair(EquivalenceRelation(diagonal_relation(ABC)), strict)
    rep = check_properties(joined)
    assert rep.reflexive and rep.antisymmetric and rep.transitive and rep.complete


def test_join_glued_pair_without_strict():
    e = EquivalenceRelation(
        preorder(ABC, [("a", "b"), ("b", "a")])
    )
    joined = join_pair(e, empty_relation(ABC))
    assert joined == e.underlying
    split = split_preorder(joined)
    assert split.strict == empty_relation(ABC)
    assert classes(split.equivalence).blocks == (("a", "b"), ("c",))


def test_join_rejects_symmetric_strict_part():
    with pytest.raises(PairInvalid):
        join_pair(
            EquivalenceRelation(diagonal_relation(ABC)),
            make_relation(ABC, [("a", "b"), ("b", "a")]),
        )


def test_join_rejects_overlap_and_unsaturated():
    e = EquivalenceRelation(preorder(ABC, [("a", "b"), ("b", "a")]))
    with pytest.raises(PairInvalid) as overlap:
        join_pair(e, make_relation(ABC, [("a", "b")]))  # overlaps the equivalence
    assert overlap.value.witness == ("a", "b")
    with pytest.raises(PairInvalid):
        join_pair(e, make_relation(ABC, [("a", "c")]))  # b must follow a


def test_split_join_bijection_counts():
    # preorders correspond exactly to valid (equivalence, strict) pairs
    from ordbubble.sweep import count_split_pairs

    for n, expected in ((1, 1), (2, 4), (3, 29)):
        assert sum(1 for _ in enumerate_preorders(n)) == expected
        assert count_split_pairs(n) == expected


def test_enumerate_preorders_counts_and_guard():
    assert sum(1 for _ in enumerate_preorders(1)) == 1
    assert sum(1 for _ in enumerate_preorders(2)) == 4
    with pytest.raises(TooLarge):
        list(enumerate_preorders(5))


def test_enumerate_preorders_matches_naive_filter():
    ours = [r.pairs() for r in enumerate_preorders(3)]
    naive = [
        r.pairs()
        for r in oracles.all_preorders_on(("e0", "e1", "e2"))
    ]
    assert sorted(map(tuple, ours)) == sorted(map(tuple, naive))


# ---------------------------------------------------------------------------
# decomposition

def test_two_bubble_decomposition():
    r = two_bubble_example()
    system = bubble_decompose(r)
    assert [set(b.elements) for b in system.bubbles] == [{"x1", "x2"}, {"y"}]
    assert system.index.sorted_labels() == ("B0", "B1")
    inner = system.bubbles[0].inner.underlying
    assert inner == diagonal_relation(inner.carrier)


def test_fishburn_case_complete_preorder():
    r = preorder(ABC, [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")])
    assert check_properties(r).complete
    system = bubble_decompose(r)
    assert [set(b.elements) for b in system.bubbles] == [{"a", "b"}, {"c"}]
    # complete case: the bubbles are exactly the symmetric-part classes
    sym_classes = classes(split_preorder(r).equivalence)
    assert [set(b) for b in sym_classes.blocks] == [{"a", "b"}, {"c"}]


def test_decompose_refuses_with_witness():
    r = preorder(ABC, [("a", "b")])
    with pytest.raises(NotNegativelyTransitive) as err:
        bubble_decompose(r)
    assert err.value.witness == ("a", "c", "b")


def test_single_bubble_composition():
    carrier = Carrier(("a", "b"))
    system = bubble_decompose(full_relation(carrier))
    assert len(system.bubbles) == 1
    assert bubble_compose(system) == full_relation(carrier)


def test_two_singleton_bubbles_compose_to_chain():
    r = preorder(Carrier(("a", "b")), [("a", "b")])
    system = bubble_decompose(r)
    assert bubble_compose(system) == r
    rep = check_properties(bubble_compose(system))
    assert rep.complete and rep.antisymmetric


def test_round_trip_random_systems():
    rnd = random.Random(99)
    for _ in range(120):
        system = random_bubble_system(rnd)
        relation = bubble_compose(system)
        again = bubble_decompose(relation)
        assert again.same_shape(system)
        assert bubble_compose(again) == relation


def test_decomposable_preorders_are_exactly_composed_systems():
    composed = set()
    for system in oracles.all_bubble_systems_on(("a", "b", "c")):
        composed.add(bubble_compose(system).rows)
    assert len(composed) == 23
    decomposable = set()
    for r in enumerate_preorders(3):
        strict = derived_parts(r).asymmetric_part
        if check_properties(strict).negatively_transitive:
            decomposable.add(r.rows)
    # same relations up to the carrier label names e0.. vs a..
    assert len(decomposable) == 23
    assert composed == decomposable


# ---------------------------------------------------------------------------
# the seven decomposition conclusions, exhaustively at small size

def test_decomposition_conclusions_exhaustive():
    for n in (1, 2, 3, 4):
        for r in enumerate_preorders(n):
            parts = derived_parts(r)
            strict = parts.asymmetric_part
            if not check_properties(strict).negatively_transitive:
                with pytest.raises(NotNegativelyTransitive):
                    bubble_decompose(r)
                continue
            system = bubble_decompose(r)
            glue = derived_parts(strict).incomparability
            # (i) incomparability of R is symmetric; the glue is an equivalence
            assert check_properties(parts.incomparability).symmetric
            grep = check_properties(glue)
            assert grep.reflexive and grep.symmetric and grep.transitive
            # (ii) glue = symmetric part with incomparability
            assert glue == combine(parts.symmetric_part, parts.incomparability, "union")
            # (iii) strict part saturated for the glue
            assert check_saturation(strict, glue, "full").holds
            # (iv) equivalence part weakly saturated for the glue
            assert check_saturation(parts.symmetric_part, glue, "weak").holds
            # (v) whole preorder weakly saturated for the glue
            assert check_saturation(r, glue, "weak").holds
            # (vi)+(vii) quotient = diagonal plus strict factor, a linear order
            from ordbubble import factor_relation, weak_factor_relation

            glue_eq = EquivalenceRelation(glue)
            quotient = weak_factor_relation(r, glue_eq)
            strict_quotient = factor_relation(strict, glue_eq)
            blocks = quotient.relation.carrier
            assert quotient.relation == combine(
                diagonal_relation(blocks), strict_quotient.relation, "union"
            )
            assert combine(
                diagonal_relation(blocks), strict_quotient.relation, "intersection"
            ).pair_count() == 0
            qrep = check_properties(quotient.relation)
            assert qrep.reflexive and qrep.transitive and qrep.antisymmetric and qrep.complete
            assert derived_parts(quotient.relation).asymmetric_part == strict_quotient.relation
            # the reported index loset matches the quotient order
            assert system.index.relation() == quotient.relation


def test_composition_conclusions_random():
    rnd = random.Random(7)
    for _ in range(60):
        system = random_bubble_system(rnd)
        relation = bubble_compose(system)
        rep = check_properties(relation)
        assert rep.reflexive and rep.transitive
        strict = derived_parts(relation).asymmetric_part
        assert check_properties(strict).negatively_transitive
        glue = derived_parts(strict).incomparability
        assert glue == system.partition_equivalence().underlying
        # strict comparisons match the index order through the projection
        rank = {x: system.index.rank_of(lbl) for x, lbl in system.projection.items()}
        for x in relation.carrier.elements:
            for y in relation.carrier.elements:
                assert strict.has(x, y) == (rank[x] < rank[y])
        # the quotient by the glue is isomorphic to the index
        from ordbubble import factor_through

        result = factor_through(
            system.projection,
            EquivalenceRelation(glue),
            relation,
            system.index.relation(),
        )
        assert result.bijective


def test_bubble_members_of_distinct_curves_incomparable():
    rnd = random.Random(23)
    for _ in range(60):
        system = random_bubble_system(rnd)
        relation = bubble_compose(system)
        sym = derived_parts(relation).symmetric_part
        comp = derived_parts(relation).comparability
        for bubble in system.bubbles:
            for x in bubble.elements:
                for y in bubble.elements:
                    if not bubble.inner.related(x, y):
                        assert not comp.has(x, y)
            # bubbles are saturated for the symmetric part
            from ordbubble.factor import is_saturated_subset

            assert is_saturated_subset(bubble.elements, EquivalenceRelation(sym))


def test_complete_preorders_have_single_curve_bubbles():
    for n in (1, 2, 3, 4):
        for r in enumerate_preorders(n):
            if not check_properties(r).complete:
                continue
            system = bubble_decompose(r)  # complete implies decomposable
            for bubble in system.bubbles:
                assert bubble.inner.underlying == full_relation(bubble.inner.carrier)


# ---------------------------------------------------------------------------
# bourbaki fallback

def test_bourbaki_matches_decomposition_when_applicable():
    r = two_bubble_example()
    factored = bourbaki_factor(r)
    system = bubble_decompose(r)
    assert [set(b) for b in factored.partition.blocks] == [
        set(b.elements) for b in system.bubbles
    ]


def test_bourbaki_glues_chained_incomparability():
    r = preorder(ABC, [("a", "b")])
    factored = bourbaki_factor(r)
    assert factored.partition.blocks == (("a", "b", "c"),)
    assert factored.order.n == 1


def test_bourbaki_on_discrete_preorder():
    factored = bourbaki_factor(diagonal_relation(ABC))
    assert factored.partition.blocks == (("a", "b", "c"),)


def test_bourbaki_always_linear_exhaustive():
    for r in enumerate_preorders(3):
        factored = bourbaki_factor(r)
        rep = check_properties(factored.order.relation())
        assert rep.antisymmetric and rep.complete and rep.transitive


# ---------------------------------------------------------------------------
# general coproducts

def _random_partial_order_rows(rnd, n):
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < 0.4:
                rows[i] |= 1 << j
    from ordbubble.relations import closure_rows

    return closure_rows(tuple(rows), n)


def test_general_coproduct_formulas():
    rnd = random.Random(29)
    for _ in range(40):
        k = rnd.randint(1, 4)
        index_labels = tuple(f"I{i}" for i in range(k))
        index = Relation(Carrier(index_labels), _random_partial_order_rows(rnd, k))
        summands = {}
        offset = 0
        for label in index_labels:
            size = rnd.randint(1, 3)
            labels = tuple(f"s{offset + i}" for i in range(size))
            offset += size
            summands[label] = Relation(
                Carrier(labels), random_preorder_rows(rnd, size)
            )
        relation, projection = coproduct_preorder(index, summands)
        rep = check_properties(relation)
        assert rep.reflexive and rep.transitive
        strict_index = derived_parts(index).asymmetric_part
        parts = derived_parts(relation)
        for x in relation.carrier.elements:
            for y in relation.carrier.elements:
                ix, iy = projection[x], projection[y]
                same = ix == iy
                part = summands[ix]
                expected_sym = same and derived_parts(part).symmetric_part.has(x, y)
                assert parts.symmetric_part.has(x, y) == expected_sym
                expected_strict = (
                    strict_index.has(ix, iy)
                    or (same and derived_parts(part).asymmetric_part.has(x, y))
                )
                assert parts.asymmetric_part.has(x, y) == expected_strict


def test_coproduct_of_bubbles_strict_part_is_index_order():
    rnd = random.Random(31)
    for _ in range(40):
        system = random_bubble_system(rnd, max_index=4, max_bubble=3)
        relation = bubble_compose(system)
        parts = derived_parts(relation)
        glue = system.partition_equivalence()
        # strict part saturated for the partition equivalence
        assert check_saturation(parts.asymmetric_part, glue.underlying, "full").holds


# ---------------------------------------------------------------------------
# serialization

def test_bubble_system_json_round_trip():
    r = two_bubble_example()
    system = bubble_decompose(r)
    payload = system.to_json_dict()
    loaded = bubble_system_from_json_dict(payload)
    assert loaded.same_shape(system)
    assert bubble_compose(loaded).pairs() == bubble_compose(system).pairs()


def test_bubble_system_json_rejects_non_equivalence_inner():
    from ordbubble.errors import ValidationError

    payload = {
        "index": ["B0"],
        "bubbles": [
            {"label": "B0", "elements": ["a", "b"], "inner_pairs": [["a", "a"], ["b", "b"], ["a", "b"]]}
        ],
    }
    with pytest.raises(ValidationError):
        bubble_system_from_json_dict(payload)


def test_bubble_system_refuses_projection_keys_outside_the_carrier():
    carrier = Carrier(("a", "b"))
    bubbles = tuple(Bubble((x,), EquivalenceRelation(make_relation(Carrier((x,)), [(x, x)]))) for x in "ab")
    index = Loset.chain(("I0", "I1"))
    BubbleSystem(carrier=carrier, index=index, bubbles=bubbles, projection={"a": "I0", "b": "I1"})
    with pytest.raises(InvalidSystem) as info:
        BubbleSystem(carrier=carrier, index=index, bubbles=bubbles, projection={"a": "I0", "b": "I1", "z": "I0"})
    assert str(info.value) == "projection disagrees with bubble membership"


def test_loset_from_relation_and_back():
    order = Loset.chain(("p", "q", "r"))
    assert Loset.from_relation(order.relation()).sorted_labels() == ("p", "q", "r")
    assert order.least() == "p" and order.greatest() == "r"


def test_public_mappings_are_read_only():
    ab = Carrier(("a", "b"))
    system = bubble_decompose(make_relation(ab, [("a", "a"), ("b", "b"), ("a", "b")]))
    utility = generalized_utility(bubble_compose(system))
    report = check_properties(make_relation(ab, [("a", "b")]))
    for mapping, key, value in (
        (system.projection, "a", "ZZ"),
        (utility.values, "a", 2),
        (report.witnesses, "reflexive", ("b",)),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
    assert system.projection["a"] != "ZZ" and report.witnesses["reflexive"] == ("a",)
