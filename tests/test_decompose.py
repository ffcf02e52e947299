"""``bubble_decompose`` against the quotient route it replaced
(``oracles.factor_bubble_decompose``): the same system, bit for bit, or the
same refusal, with its class, message and witness, on every preorder with
n <= 4, on seeded bubble systems up to n = 256, and on coproducts over a
non-linear index on both sides of the word-parallel threshold; and every
inner equivalence passes a fresh validation."""

import random

import oracles
from oracles import seeded_systems, shuffled_bubble_system, sparse_poset
from ordbubble import (
    Carrier,
    EquivalenceRelation,
    NotNegativelyTransitive,
    OrderError,
    Relation,
    bubble_compose,
    bubble_decompose,
    coproduct_preorder,
    enumerate_preorders,
)


def outcome(decompose, relation: Relation):
    """The system's every field, or the refusal's class, message, witness
    and check name."""
    try:
        system = decompose(Relation(relation.carrier, relation.rows))
    except OrderError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None), getattr(exc, "check", None)
    for bubble in system.bubbles:
        inner = bubble.inner.underlying
        EquivalenceRelation(Relation(inner.carrier, inner.rows))
    return system.carrier, system.index, system.bubbles, list(system.projection.items())


def assert_same(relation: Relation):
    found = outcome(bubble_decompose, relation)
    assert found == outcome(oracles.factor_bubble_decompose, relation)
    return found


def test_every_small_preorder_decomposes_or_refuses_as_the_oracle():
    refused = [assert_same(r)[0] for n in range(1, 5) for r in enumerate_preorders(n)]
    assert len(refused) == 1 + 4 + 29 + 355
    assert refused.count(NotNegativelyTransitive) == 186


def test_seeded_systems_decompose_as_the_oracle():
    systems = list(seeded_systems()) + [shuffled_bubble_system(random.Random(n), n) for n in (128, 256)]
    for system in systems:
        found = assert_same(bubble_compose(system))
        assert [set(b.elements) for b in found[2]] == [set(b.elements) for b in system.bubbles]


def test_coproducts_over_a_non_linear_index_refuse_as_the_oracle():
    # summands of one to three elements over a sparse poset index, which is
    # no weak order, so the nested-rows test refuses and the scan runs
    rnd = random.Random(19)
    small = {size: list(enumerate_preorders(size)) for size in (1, 2, 3)}
    for n in (31, 32, 33, 64, 100):
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rnd.randint(1, 3), n - sum(sizes)))
        index = sparse_poset(rnd, len(sizes))
        summands, carrier = {}, []
        for label, size in zip(index.carrier.elements, sizes):
            elems = tuple(f"{label}.{k}" for k in range(size))
            summands[label] = Relation(Carrier(elems), rnd.choice(small[size]).rows)
            carrier.extend(elems)
        rnd.shuffle(carrier)
        relation, _ = coproduct_preorder(index, summands, carrier=Carrier(tuple(carrier)))
        assert relation.n == n
        assert assert_same(relation)[0] is NotNegativelyTransitive
