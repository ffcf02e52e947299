"""The bubbling check ``structure._bubbling_levels`` against the witness
kernels: it accepts exactly the preorders whose strict part is negatively
transitive, on every relation with n <= 4 and on seeded bubble relations
up to n = 300 and one-bit-tampered copies of them.  ``bubble_compose``,
verified by that check alone before its glue and index checks, against the
label-level composition on every bubble system with n <= 4 and on seeded
ones, and its refusals when an inner relation, proved without the kernels,
is no equivalence."""

import random
from itertools import product

import pytest

import oracles
from oracles import all_bubble_systems_on, ordered_set_partitions, seeded_systems, shuffled_bubble_system
from ordbubble import (
    Carrier,
    EquivalenceRelation,
    InvariantViolation,
    NotAPreorder,
    Relation,
    bubble_compose,
    make_relation,
)
from ordbubble.relations import (
    _neg_transitive_witness,
    _reflexive_witness,
    _transitive_witness,
    all_rows,
    preorder_witness,
    transpose_rows,
)
from ordbubble.structure import Bubble, BubbleSystem, Loset, _bubbling_levels


def is_bubbling(rows, n) -> bool:
    """Reflexive, transitive and with a negatively transitive strict part,
    by the witness kernels."""
    tr = transpose_rows(rows, n)
    strict = tuple(a & ~b for a, b in zip(rows, tr))
    return (
        _reflexive_witness(rows, n) is None
        and _transitive_witness(rows, n) is None
        and _neg_transitive_witness(strict, n) is None
    )


def assert_check_is_exact(rows, n) -> bool:
    """The check accepts exactly the bubblings; its levels are the classes
    of equal strict rows, listed by least member, each keyed by minus its
    strict row's size."""
    level = _bubbling_levels(rows, transpose_rows(rows, n))
    assert (level is not None) == is_bubbling(rows, n)
    if level is not None:
        strict = [a & ~b for a, b in zip(rows, transpose_rows(rows, n))]
        classes = {}
        for i, row in enumerate(strict):
            classes.setdefault(row, []).append(i)
        assert list(level.values()) == list(classes.values())
        assert list(level) == [-row.bit_count() for row in classes]
    return level is not None


def test_the_check_is_exact_on_every_small_relation():
    accepted = [sum(assert_check_is_exact(rows, n) for rows in all_rows(n)) for n in range(1, 5)]
    assert accepted == [1, 4, 23, 175]  # the labelled bubble census


def test_the_check_is_exact_on_seeded_and_tampered_bubble_relations():
    rnd = random.Random(23)
    sizes = [rnd.randint(1, 64) for _ in range(60)] + [31, 32, 33, 100, 200, 300]
    outcomes = set()
    for n in sizes:
        system = shuffled_bubble_system(rnd, n)
        rows = bubble_compose(system).rows
        assert assert_check_is_exact(rows, n)
        blocks = [[system.carrier.position(x) for x in b.elements] for b in system.bubbles]
        wide = [block for block in blocks if len(block) > 1]
        flips = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(3)]
        if wide:  # a flip inside a bubble: only the symmetric rows can tell
            block = rnd.choice(wide)
            flips.append(tuple(rnd.sample(block, 2)))
        for x, y in flips:
            tampered = list(rows)
            tampered[x] ^= 1 << y
            outcomes.add(assert_check_is_exact(tuple(tampered), n))
    assert outcomes == {True, False}


def test_compose_matches_the_label_composition():
    systems = [s for n in range(1, 5) for s in all_bubble_systems_on(tuple("abcd"[:n]))]
    assert len(systems) == 1 + 4 + 23 + 175
    systems += list(seeded_systems(100, 64, seed=29)) + [shuffled_bubble_system(random.Random(n), n) for n in (128, 300)]
    for system in systems:
        assert bubble_compose(system) == oracles.label_bubble_compose(system)


def proved_system(blocks, inner_rows) -> BubbleSystem:
    """Bubbles ``blocks`` from the bottom up, each with inner relation rows
    taken without validation."""
    elements = tuple(x for block in blocks for x in block)
    bubbles, projection = [], {}
    for k, (block, rows) in enumerate(zip(blocks, inner_rows)):
        inner = EquivalenceRelation._proved(Relation(Carrier(block), rows))
        bubbles.append(Bubble(block, inner))
        projection.update(dict.fromkeys(block, f"I{k}"))
    index = Loset.chain(tuple(f"I{k}" for k in range(len(blocks))))
    return BubbleSystem(carrier=Carrier(elements), index=index, bubbles=tuple(bubbles), projection=projection)


def test_compose_accepts_exactly_the_equivalence_inner_relations():
    # every inner relation on every ordered partition of up to three
    # elements: compose returns the label composition exactly when each is
    # an equivalence; otherwise it names the first inner relation that is
    # no preorder, or reports the composed strict part
    seen = set()
    for n in range(1, 4):
        for blocks in ordered_set_partitions(tuple("abc"[:n])):
            for inner_rows in product(*(all_rows(len(block)) for block in blocks)):
                system = proved_system(blocks, inner_rows)
                inners = [b.inner.underlying for b in system.bubbles]
                try:
                    composed = bubble_compose(system)
                except NotAPreorder as exc:
                    first = next(w for w in map(preorder_witness, inners) if w is not None)
                    assert exc.witness == first
                    seen.add("not-a-preorder")
                except InvariantViolation as exc:
                    assert all(preorder_witness(r) is None for r in inners)
                    assert not all(oracles.naive_symmetric(r) for r in inners)
                    seen.add(exc.check)
                else:
                    assert all(oracles.naive_symmetric(r) and preorder_witness(r) is None for r in inners)
                    assert composed == oracles.label_bubble_compose(system)
                    seen.add("composed")
    assert seen == {"composed", "not-a-preorder", "composed-glue-partition", "strict-part-negatively-transitive"}


@pytest.mark.parametrize("around", [False, True])
def test_compose_refuses_a_symmetric_inner_relation_that_is_not_transitive(around):
    # a ~ b and b ~ c but not a ~ c: the glue and index checks alone pass it
    path = make_relation(Carrier(("a", "b", "c")), [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    blocks, inner_rows = [("a", "b", "c")], [path.rows]
    if around:  # with a singleton bubble below and one above
        blocks, inner_rows = [("p",), *blocks, ("q",)], [(1,), *inner_rows, (1,)]
    with pytest.raises(NotAPreorder) as info:
        bubble_compose(proved_system(blocks, inner_rows))
    assert info.value.witness == ("a", "b", "c")


def test_compose_names_the_first_bad_inner_relation_in_index_carrier_order():
    # two bubbles whose inner relations are not reflexive, with the index
    # carrier listing the top label first: the coproduct validated its
    # summands in index carrier order, so the top bubble is named
    bubbles = tuple(Bubble((x,), EquivalenceRelation._proved(Relation(Carrier((x,)), (0,)))) for x in "ab")
    index = Loset(Carrier(("I1", "I0")), (1, 0))
    system = BubbleSystem(carrier=Carrier(("a", "b")), index=index, bubbles=bubbles, projection={"a": "I0", "b": "I1"})
    with pytest.raises(NotAPreorder) as info:
        bubble_compose(system)
    assert info.value.witness == ("b",)
