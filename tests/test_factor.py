import random

import pytest

import oracles
from ordbubble import (
    Carrier,
    EquivalenceRelation,
    NotAnEquivalence,
    NotAnIndifference,
    NotConstantOnClasses,
    NotSaturated,
    Partition,
    Relation,
    classes,
    check_properties,
    check_saturation,
    combine,
    diagonal_relation,
    factor_relation,
    factor_through,
    full_relation,
    indifference_curves,
    make_relation,
    product_equivalence,
    refinement_map,
    refines,
    transitive_closure,
    weak_factor_relation,
)
from ordbubble.factor import is_saturated_subset

ABC = Carrier(("a", "b", "c"))


def equivalence(carrier, pairs):
    base = [(x, x) for x in carrier.elements]
    return EquivalenceRelation(make_relation(carrier, base + list(pairs)))


def test_equivalence_validation():
    with pytest.raises(NotAnEquivalence):
        EquivalenceRelation(make_relation(ABC, [("a", "b")]))


def test_classes_of_diagonal():
    part = classes(equivalence(ABC, []))
    assert part.blocks == (("a",), ("b",), ("c",))


def test_classes_of_trivial():
    part = classes(EquivalenceRelation(full_relation(ABC)))
    assert part.blocks == (("a", "b", "c"),)


def test_classes_of_one_glued_pair():
    part = classes(equivalence(ABC, [("a", "b"), ("b", "a")]))
    assert part.blocks == (("a", "b"), ("c",))
    assert part.canonical_map() == {"a": "B0", "b": "B0", "c": "B1"}


def test_partition_round_trip_exhaustive():
    # Bell numbers 1, 2, 5, 15: partitions of up to four elements
    sizes = {1: 1, 2: 2, 3: 5, 4: 15}
    for n, bell in sizes.items():
        labels = tuple(f"e{i}" for i in range(n))
        seen = 0
        for e in oracles.all_equivalences_on(labels):
            part = classes(e)
            assert part.associated_equivalence().underlying == e.underlying
            seen += 1
        assert seen == bell


def test_factor_relation_of_trivial():
    e = equivalence(ABC, [("a", "b"), ("b", "a")])
    q = factor_relation(full_relation(ABC), e)
    assert q.relation == full_relation(Carrier(("B0", "B1")))


def test_factor_relation_two_bubbles_strict():
    carrier = Carrier(("x1", "x2", "y"))
    strict = make_relation(carrier, [("x1", "y"), ("x2", "y")])
    glue = equivalence(carrier, [("x1", "x2"), ("x2", "x1")])
    q = factor_relation(strict, glue)
    assert q.partition.blocks == (("x1", "x2"), ("y",))
    assert q.relation.pairs() == [("B0", "B1")]


def test_factor_relation_rejects_unsaturated():
    e = equivalence(ABC, [("a", "c"), ("c", "a")])
    with pytest.raises(NotSaturated) as err:
        factor_relation(make_relation(ABC, [("a", "b")]), e)
    assert err.value.witness  # a concrete violating triple


def test_factor_bijection_counts_for_fixed_equivalence():
    # saturated relations correspond one-to-one with relations on blocks
    for e in oracles.all_equivalences_on(("a", "b", "c")):
        k = len(classes(e).blocks)
        saturated = [
            r
            for r in oracles.all_relations_on(("a", "b", "c"))
            if check_saturation(r, e.underlying, "full").holds
        ]
        assert len(saturated) == 2 ** (k * k)
        images = set()
        for r in saturated:
            q = factor_relation(r, e)
            images.add(q.relation.rows)
            # the quotient determines the source: pull back and compare
            part = q.partition
            pulled = [
                (x, y)
                for x in r.carrier.elements
                for y in r.carrier.elements
                if q.relation.has(f"B{part.block_of(x)}", f"B{part.block_of(y)}")
            ]
            assert make_relation(r.carrier, pulled) == r
        assert len(images) == 2 ** (k * k)


def test_weak_factor_equals_factor_on_saturated_relations():
    for e in oracles.all_equivalences_on(("a", "b", "c")):
        for r in oracles.all_relations_on(("a", "b", "c")):
            if check_saturation(r, e.underlying, "full").holds:
                assert weak_factor_relation(r, e).relation == factor_relation(r, e).relation


def test_weak_factor_with_discrete_equivalence_is_isomorphic():
    r = make_relation(ABC, [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b")])
    q = weak_factor_relation(r, equivalence(ABC, []))
    relabel = {"a": "B0", "b": "B1", "c": "B2"}
    expected = [(relabel[x], relabel[y]) for x, y in r.pairs()]
    assert sorted(q.relation.pairs()) == sorted(expected)


def test_weak_factor_quantification():
    # block X reaches block Y iff every member of X reaches some member of Y
    rnd = random.Random(3)
    labels = ("a", "b", "c", "d")
    carrier = Carrier(labels)
    equivalences = list(oracles.all_equivalences_on(labels))
    for _ in range(80):
        pairs = [(x, y) for x in labels for y in labels if rnd.random() < 0.4]
        r = make_relation(carrier, pairs)
        e = rnd.choice(equivalences)
        q = weak_factor_relation(r, e)
        part = q.partition
        for i, src in enumerate(part.blocks):
            for j, dst in enumerate(part.blocks):
                expected = all(any(r.has(x, y) for y in dst) for x in src)
                assert q.relation.has(f"B{i}", f"B{j}") == expected


# ---------------------------------------------------------------------------
# weak factor-relation consequences (quotient shape under weak saturation)

def test_quotient_shape_under_weak_saturation_exhaustive():
    equivalences = list(oracles.all_equivalences_on(("a", "b", "c")))
    for r in oracles.all_relations_on(("a", "b", "c")):
        rep = check_properties(r)
        for e in equivalences:
            if not oracles.naive_saturated(r, e.underlying, "weak"):
                continue
            q = weak_factor_relation(r, e)
            qrep = check_properties(q.relation)
            if rep.reflexive:
                assert qrep.reflexive
            if rep.transitive:
                assert qrep.transitive
            part = q.partition
            block = part.canonical_map()
            condition = all(
                not (r.has(x, y) and r.has(y, z) and e.related(x, z)) or e.related(x, y)
                for x in r.carrier.elements
                for y in r.carrier.elements
                for z in r.carrier.elements
            )
            assert qrep.antisymmetric == condition
            # the canonical map is increasing exactly under weak saturation
            assert all(
                q.relation.has(block[x], block[y])
                for x in r.carrier.elements
                for y in r.carrier.elements
                if r.has(x, y)
            )


def test_canonical_map_increasing_iff_weakly_saturated():
    equivalences = list(oracles.all_equivalences_on(("a", "b", "c")))
    for r in oracles.all_relations_on(("a", "b", "c")):
        for e in equivalences:
            q = weak_factor_relation(r, e)
            block = q.partition.canonical_map()
            increasing = all(
                q.relation.has(block[x], block[y])
                for x in r.carrier.elements
                for y in r.carrier.elements
                if r.has(x, y)
            )
            assert increasing == oracles.naive_saturated(r, e.underlying, "weak")


def test_saturated_with_symmetric_part_inside_forces_antisymmetric_quotient():
    # when R is fully saturated and its symmetric part sits inside the
    # equivalence, the quotient is antisymmetric
    from ordbubble import derived_parts

    equivalences = list(oracles.all_equivalences_on(("a", "b", "c")))
    hit = 0
    for r in oracles.all_relations_on(("a", "b", "c")):
        sym = derived_parts(r).symmetric_part
        for e in equivalences:
            if not check_saturation(r, e.underlying, "full").holds:
                continue
            if any(a & ~b for a, b in zip(sym.rows, e.underlying.rows)):
                continue
            q = weak_factor_relation(r, e)
            assert check_properties(q.relation).antisymmetric
            hit += 1
    assert hit > 100


# ---------------------------------------------------------------------------
# indifference curves

def test_indifference_curves_of_diagonal():
    assert indifference_curves(diagonal_relation(ABC)).blocks == (("a",), ("b",), ("c",))


def test_indifference_curves_chain_closure():
    carrier = Carrier(("a", "b", "c", "d"))
    s = make_relation(
        carrier,
        [(x, x) for x in carrier.elements]
        + [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")],
    )
    assert indifference_curves(s).blocks == (("a", "b", "c"), ("d",))


def test_indifference_curves_reject_non_indifference():
    with pytest.raises(NotAnIndifference):
        indifference_curves(make_relation(ABC, [("a", "b")]))


def test_coarser_indifference_unions_curves():
    rnd = random.Random(17)
    for _ in range(100):
        n = rnd.randint(1, 6)
        labels = tuple(f"e{i}" for i in range(n))
        carrier = Carrier(labels)
        base = [(x, x) for x in labels]
        small_extra = []
        for x in labels:
            for y in labels:
                if x < y and rnd.random() < 0.25:
                    small_extra += [(x, y), (y, x)]
        big_extra = list(small_extra)
        for x in labels:
            for y in labels:
                if x < y and rnd.random() < 0.25:
                    big_extra += [(x, y), (y, x)]
        small = make_relation(carrier, base + small_extra)
        big = make_relation(carrier, base + big_extra)
        fine = indifference_curves(small)
        coarse = indifference_curves(big)
        mapping = refinement_map(fine, coarse)
        assert mapping is not None
        for block in coarse.blocks:
            members = set(block)
            pieces = [set(b) for b in fine.blocks if set(b) <= members]
            assert set().union(*pieces) == members


def test_closure_of_indifference_is_equivalence():
    rnd = random.Random(19)
    for _ in range(100):
        n = rnd.randint(1, 6)
        labels = tuple(f"e{i}" for i in range(n))
        carrier = Carrier(labels)
        pairs = [(x, x) for x in labels]
        for x in labels:
            for y in labels:
                if x < y and rnd.random() < 0.3:
                    pairs += [(x, y), (y, x)]
        s = make_relation(carrier, pairs)
        closed = transitive_closure(s)
        rep = check_properties(closed)
        assert rep.reflexive and rep.symmetric and rep.transitive


# ---------------------------------------------------------------------------
# products

def test_product_of_diagonals_is_diagonal():
    d2 = equivalence(Carrier(("a", "b")), [])
    prod = product_equivalence(d2, d2)
    assert prod.underlying == diagonal_relation(prod.carrier)


def test_product_of_trivials_is_trivial():
    t = EquivalenceRelation(full_relation(Carrier(("a", "b"))))
    prod = product_equivalence(t, t)
    assert prod.underlying == full_relation(prod.carrier)


def test_relation_saturation_is_square_subset_saturation():
    labels = ("a", "b")
    carrier = Carrier(labels)
    for e in oracles.all_equivalences_on(labels):
        square = product_equivalence(e, e)
        for r in oracles.all_relations_on(labels):
            subset = [f"({x},{y})" for x, y in r.pairs()]
            assert (
                check_saturation(r, e.underlying, "full").holds
                == is_saturated_subset(subset, square)
            )


# ---------------------------------------------------------------------------
# factoring maps through the quotient

def test_factor_through_identity():
    e = equivalence(ABC, [])
    r = make_relation(ABC, [("a", "b")])
    result = factor_through({x: x for x in ABC.elements}, e, r, r)
    assert result.on_blocks == {"B0": "a", "B1": "b", "B2": "c"}
    assert result.surjective and result.bijective
    with pytest.raises(TypeError):
        result.on_blocks["B0"] = "z"
    assert result.on_blocks["B0"] == "a"


def test_factor_through_rejects_class_splitting_maps():
    e = equivalence(ABC, [("a", "b"), ("b", "a")])
    r = diagonal_relation(ABC)
    with pytest.raises(NotConstantOnClasses):
        factor_through({"a": "a", "b": "b", "c": "c"}, e, r, r)


def test_factor_through_detects_kernel():
    carrier = Carrier(("a", "b", "c"))
    target = Carrier(("lo", "hi"))
    e = equivalence(carrier, [("a", "b"), ("b", "a")])
    r = make_relation(
        carrier,
        [(x, x) for x in carrier.elements] + [("a", "c"), ("b", "c")],
    )
    s = make_relation(target, [("lo", "lo"), ("hi", "hi"), ("lo", "hi")])
    result = factor_through({"a": "lo", "b": "lo", "c": "hi"}, e, r, s)
    assert result.surjective and result.kernel_is_equivalence and result.bijective


def test_refines():
    fine = equivalence(ABC, [])
    coarse = equivalence(ABC, [("a", "b"), ("b", "a")])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    mapping = refinement_map(classes(fine), classes(coarse))
    assert mapping == {"B0": "B0", "B1": "B0", "B2": "B1"}
