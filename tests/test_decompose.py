"""``bubble_decompose`` against the quotient route it replaced
(``oracles.factor_bubble_decompose``): the same system, bit for bit, or the
same refusal, with its class, message and witness, on every relation with
n <= 4, on seeded bubble systems up to n = 300 and one-bit-tampered copies
of them, and on coproducts over a non-linear index on both sides of the
word-parallel threshold; and every inner equivalence passes a fresh
validation.  ``generalized_utility``, which checks integer ranks, against
the check on its values (``oracles.value_generalized_utility``) on every
relation with n <= 4 and on the seeded and tampered ones, and on
decompositions of the wrong relation."""

import random

import pytest

import oracles
from oracles import seeded_systems, shuffled_bubble_system, sparse_poset
from ordbubble import (
    Carrier,
    EquivalenceRelation,
    InvariantViolation,
    NotNegativelyTransitive,
    OrderError,
    Relation,
    bubble_compose,
    bubble_decompose,
    cantor_embed,
    coproduct_preorder,
    enumerate_preorders,
    generalized_utility,
)
from ordbubble import order_ext
from ordbubble.relations import all_rows


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


def utility_outcome(utility, relation: Relation):
    try:
        return list(utility(Relation(relation.carrier, relation.rows)).values.items())
    except OrderError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None), getattr(exc, "check", None)


def assert_same(relation: Relation):
    found = outcome(bubble_decompose, relation)
    assert found == outcome(oracles.factor_bubble_decompose, relation)
    return found


def assert_both_same(relation: Relation):
    assert utility_outcome(generalized_utility, relation) == utility_outcome(oracles.value_generalized_utility, relation)
    return assert_same(relation)


def test_every_small_relation_decomposes_or_refuses_as_the_oracles():
    found = [assert_both_same(Relation(Carrier(tuple(f"e{i}" for i in range(n))), rows))[0] for n in range(1, 5) for rows in all_rows(n)]
    assert sum(isinstance(first, Carrier) for first in found) == 1 + 4 + 23 + 175
    assert found.count(NotNegativelyTransitive) == 186


def test_tampered_bubble_relations_decompose_or_refuse_as_the_oracles():
    rnd = random.Random(31)
    for n in [rnd.randint(1, 64) for _ in range(40)] + [31, 32, 33, 100, 300]:
        relation = bubble_compose(shuffled_bubble_system(rnd, n))
        assert isinstance(assert_both_same(relation)[0], Carrier)
        rows = list(relation.rows)
        rows[rnd.randrange(n)] ^= 1 << rnd.randrange(n)
        assert_both_same(Relation(relation.carrier, tuple(rows)))


def test_utility_on_a_wrong_decomposition_refuses_as_the_value_check(monkeypatch):
    # decompose a different relation on the same carrier: the grid still
    # increases along its index, so the ranks are checked, and they must
    # refuse where the values refuse, with the same check and witness
    decompose = order_ext.bubble_decompose
    preorders = [r for r in oracles.decomposable_preorders() if r.n <= 3]
    checks = set()
    for relation in preorders:
        for other in preorders:
            if other.carrier != relation.carrier:
                continue
            system = decompose(other)
            grid = cantor_embed(system.index)
            values = {x: grid[system.projection[x]] for x in relation.carrier.elements}
            expected = oracles.label_utility_check(relation, values)
            monkeypatch.setattr(order_ext, "bubble_decompose", lambda r, s=system: s)
            if expected is None:
                assert dict(generalized_utility(relation).values) == values
                continue
            with pytest.raises(InvariantViolation) as info:
                generalized_utility(relation)
            assert str(info.value) == f"invariant violated: {expected[0]}: {expected[1]}"
            checks.add(expected[0])
    assert checks == {"utility-strict", "utility-level"}


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
