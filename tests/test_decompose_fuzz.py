"""Metamorphic properties of ``bubble_decompose`` and
``generalized_utility`` on drawn bubble relations: permuting the carrier
keeps the bubbles as sets, their inner classes and their index order, and
the order of the utility values; inverting the relation keeps the bubbles
and their inner classes, reverses the index chain and reverses the order
of the utility values.  The values themselves may change: the Cantor
embedding visits the index labels in carrier order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ordbubble import Carrier, Relation, bubble_decompose, generalized_utility, transform


@st.composite
def bubble_relations(draw):
    """x below y when x's level is lower, or the levels and the inner tags
    agree; up to 40 elements, so both sides of the word-parallel threshold."""
    n = draw(st.integers(1, 40))
    levels = draw(st.lists(st.integers(0, n // 3), min_size=n, max_size=n))
    tags = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rows = tuple(
        sum(1 << y for y in range(n) if levels[x] < levels[y] or (levels[x], tags[x]) == (levels[y], tags[y]))
        for x in range(n)
    )
    return Relation(Carrier(tuple(f"x{i}" for i in range(n))), rows)


def relisted(relation, labels):
    """The same pairs over the carrier listed as ``labels``."""
    carrier = Carrier(tuple(labels))
    rows = [0] * relation.n
    for x, y in relation.pairs():
        rows[carrier.position(x)] |= 1 << carrier.position(y)
    return Relation(carrier, tuple(rows))


def utility_order(relation):
    """For each pair of labels, how their utility values compare."""
    values = generalized_utility(relation).values
    return {(x, y): (values[x] > values[y]) - (values[x] < values[y]) for x in values for y in values}


def shape(system):
    """Per bubble in index order: its elements and inner classes, as sets."""
    return [
        (frozenset(b.elements), frozenset(frozenset(b.inner.class_of(x)) for x in b.elements))
        for b in system.bubbles
    ]


@settings(max_examples=150, deadline=None)
@given(relation=bubble_relations(), data=st.data())
def test_permuting_the_carrier_keeps_the_bubbles_and_their_order(relation, data):
    labels = data.draw(st.permutations(relation.carrier.elements))
    permuted = Carrier(tuple(labels))
    rows = [0] * relation.n
    for x, y in relation.pairs():
        rows[permuted.position(x)] |= 1 << permuted.position(y)
    assert shape(bubble_decompose(Relation(permuted, tuple(rows)))) == shape(bubble_decompose(relation))


@settings(max_examples=150, deadline=None)
@given(relation=bubble_relations())
def test_inverting_keeps_the_bubbles_and_reverses_the_index(relation):
    inverse = bubble_decompose(transform(relation, "inverse"))
    assert shape(inverse) == shape(bubble_decompose(relation))[::-1]


@settings(max_examples=150, deadline=None)
@given(relation=bubble_relations(), data=st.data())
def test_permuting_the_carrier_keeps_the_order_of_the_utility_values(relation, data):
    labels = data.draw(st.permutations(relation.carrier.elements))
    assert utility_order(relisted(relation, labels)) == utility_order(relation)


@settings(max_examples=150, deadline=None)
@given(relation=bubble_relations())
def test_inverting_reverses_the_order_of_the_utility_values(relation):
    order = utility_order(relation)
    assert utility_order(transform(relation, "inverse")) == {pair: -sign for pair, sign in order.items()}
