import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

import oracles
from oracles import unique_extents
from ordbubble import (
    Carrier,
    FiniteTopology,
    Interval,
    Loset,
    NotOpen,
    TooLarge,
    bubble_compose,
    bubble_decompose,
    connectivity_report,
    continuity_check,
    derived_parts,
    diagonal_relation,
    full_relation,
    gaps,
    generalized_utility,
    generate_topology,
    interval_topology,
    is_base,
    make_relation,
    open_intervals,
    order_completeness_report,
    projection_check,
    transform,
    transitive_closure,
)
from ordbubble.cli import main
from ordbubble.errors import ValidationError
from ordbubble.structure import enumerate_preorders
from ordbubble import topology
from ordbubble.relations import Relation, closure_rows
from ordbubble.topology import (
    _generate,
    _is_open_map,
    _is_preimage_topology,
    _minimal_dense_subset,
    _minimal_opens,
)
from ordbubble.sweep import random_bubble_system

AB = Carrier(("a", "b"))
ABC = Carrier(("a", "b", "c"))


def preorder(carrier, pairs):
    return make_relation(carrier, [(x, x) for x in carrier.elements] + list(pairs))


def chain(labels):
    return Loset.chain(labels).relation()


# ---------------------------------------------------------------------------
# intervals

def test_two_chain_interval_listing():
    listing = open_intervals(chain(("a", "b")))
    described = [(iv.describe(), set(iv.extent)) for iv in listing]
    assert described == [
        ("(a,b)", set()),
        ("(<-,a)", set()),
        ("(a,->)", {"b"}),
        ("(<-,b)", {"a"}),
        ("(b,->)", set()),
    ]
    assert [iv.empty for iv in listing] == [True, True, False, False, True]


def test_single_bubble_intervals_all_empty():
    listing = open_intervals(full_relation(ABC))
    assert listing and all(iv.empty for iv in listing)


def test_coproduct_interval_extents():
    carrier = Carrier(("x1", "x2", "y"))
    r = preorder(carrier, [("x1", "y"), ("x2", "y")])
    by_name = {iv.describe(): set(iv.extent) for iv in open_intervals(r)}
    assert by_name["(<-,y)"] == {"x1", "x2"}
    assert by_name["(x1,->)"] == {"y"}
    assert by_name["(x2,->)"] == {"y"}


def test_loset_interval_intersections_stay_intervals():
    # pairwise intersections of interval extents are again interval extents
    rnd = random.Random(11)
    for n in range(1, 7):
        labels = tuple(f"e{i}" for i in range(n))
        order = Loset.chain(labels)
        extents = set(unique_extents(open_intervals(order.relation())))
        for a in extents:
            for b in extents:
                assert (a & b) in extents
    del rnd


# ---------------------------------------------------------------------------
# generation

def test_empty_subbase_gives_indiscrete():
    t = generate_topology(AB, [])
    assert t.sorted_opens() == [(), ("a", "b")]


def test_two_chain_topology_is_discrete():
    t = interval_topology(chain(("a", "b")))
    assert t.sorted_opens() == [(), ("a",), ("b",), ("a", "b")]


def test_three_chain_topology_is_power_set():
    t = interval_topology(chain(("a", "b", "c")))
    assert len(t.sorted_opens()) == 8


def test_generation_cap(tmp_path):
    # generation is uncapped; only listing the opens is
    labels = tuple(f"e{i}" for i in range(17))
    topology = generate_topology(Carrier(labels), [])
    with pytest.raises(TooLarge):
        topology.sorted_opens()
    path = tmp_path / "chain17.json"
    path.write_text(json.dumps(Loset.chain(labels).relation().to_json_dict()))
    out = tmp_path / "report.json"
    assert main(["topology", "--in", str(path), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["kind"] == "TooLarge"


def test_neighbourhoods_are_validated():
    with pytest.raises(ValidationError):
        FiniteTopology(AB, (0b10, 0b11))  # a's neighbourhood misses a
    with pytest.raises(ValidationError):
        FiniteTopology(ABC, (0b011, 0b110, 0b100))  # b in U_a but U_b not in U_a
    with pytest.raises(ValidationError):
        FiniteTopology(AB, (0b11,))
    assert FiniteTopology(ABC, (0b011, 0b010, 0b111)).sorted_opens() == [
        (), ("b",), ("a", "b"), ("a", "b", "c")
    ]


def test_sorted_opens_match_the_label_tuple_sort():
    """The int sort keys order the opens as the label tuples did: every
    topology with n <= 4 under every order of labels that sort apart from
    carrier order, and seeded ones up to n = 16 with shuffled labels."""
    for n in range(1, 5):
        for hoods in enumerate_preorders(n):
            for labels in permutations(("", "x10", "x9", "\u00e9"), n):
                t = FiniteTopology(Carrier(labels), hoods.rows)
                assert t.sorted_opens() == oracles.label_sorted_opens(t), (labels, hoods.rows)
    rnd = random.Random(22)
    for _ in range(30):
        n = rnd.randint(5, 16)
        labels = [f"x{i}" for i in range(n)]
        rnd.shuffle(labels)
        t = FiniteTopology(Carrier(tuple(labels)), random_preorder(rnd, n).rows)
        assert t.sorted_opens() == oracles.label_sorted_opens(t), (labels, t.neighbourhoods)


def test_generation_matches_naive_fixpoint_oracle():
    rnd = random.Random(13)
    for _ in range(60):
        n = rnd.randint(1, 5)
        labels = tuple(f"e{i}" for i in range(n))
        carrier = Carrier(labels)
        pairs = [(x, y) for x in labels for y in labels if rnd.random() < 0.3]
        r = preorder(carrier, pairs)
        from ordbubble import transitive_closure

        r = transitive_closure(r)
        intervals = open_intervals(r)
        ours = {frozenset(labels_) for labels_ in interval_topology(r).sorted_opens()}
        naive = oracles.naive_generated_opens(
            carrier, [iv.extent for iv in intervals]
        )
        assert ours == naive


# ---------------------------------------------------------------------------
# bases and connectivity

def test_singletons_are_base_of_discrete():
    t = interval_topology(chain(("a", "b")))
    assert is_base([("a",), ("b",)], t).holds


def test_whole_space_alone_is_not_a_base():
    t = interval_topology(chain(("a", "b")))
    verdict = is_base([("a", "b")], t)
    assert not verdict.holds
    assert verdict.witness == ("a",)


def test_base_members_must_be_open():
    t = generate_topology(AB, [])
    with pytest.raises(NotOpen):
        is_base([("a",)], t)


def test_interval_extents_form_base_for_systems():
    rnd = random.Random(17)
    for _ in range(60):
        system = random_bubble_system(rnd, max_index=4, max_bubble=3)
        if system.index.n < 2:
            continue
        relation = bubble_compose(system)
        intervals = open_intervals(relation)
        t = generate_topology(relation.carrier, intervals)
        family = [tuple(sorted(e)) for e in unique_extents(intervals) if e]
        assert is_base(family, t).holds


def test_indiscrete_is_connected():
    assert connectivity_report(generate_topology(AB, [])).connected


def test_discrete_two_chain_is_disconnected():
    report = connectivity_report(interval_topology(chain(("a", "b"))))
    assert not report.connected
    assert report.clopen_witness == ("a",)


def test_truncated_reciprocal_chain_is_connected_with_exact_gaps():
    for n in (2, 3, 4, 5):
        relation, expected_gaps = oracles.truncated_reciprocal_instance(n)
        topology = interval_topology(relation)
        assert connectivity_report(topology).connected
        assert gaps(relation) == expected_gaps


def test_every_nontrivial_finite_loset_is_disconnected():
    for n in range(2, 9):
        order = chain(tuple(f"e{i}" for i in range(n)))
        report = connectivity_report(interval_topology(order))
        assert not report.connected and report.clopen_witness is not None
        assert gaps(order)  # a gap always exists


# ---------------------------------------------------------------------------
# gaps

def test_three_chain_gaps():
    assert gaps(chain(("a", "b", "c"))) == [("a", "b"), ("b", "c")]


def test_single_bubble_has_no_gaps():
    assert gaps(full_relation(ABC)) == []


def test_loset_gaps_are_adjacent_ranks():
    rnd = random.Random(23)
    for _ in range(30):
        n = rnd.randint(1, 8)
        labels = [f"v{i}" for i in range(n)]
        rnd.shuffle(labels)
        order = Loset.chain(tuple(labels))
        expected = [(labels[i], labels[i + 1]) for i in range(n - 1)]
        assert sorted(gaps(order.relation())) == sorted(expected)


# ---------------------------------------------------------------------------
# completeness and compactness

def test_completeness_report_small_losets():
    for n in (1, 2, 3, 6):
        order = Loset.chain(tuple(f"e{i}" for i in range(n)))
        report = order_completeness_report(order)
        assert report.all_sups and report.all_infs and report.compact
        assert report.equivalence_holds


def test_completeness_cross_check_exhaustive():
    rnd = random.Random(29)
    for n in range(1, 7):
        labels = [f"e{i}" for i in range(n)]
        ranks = list(range(n))
        rnd.shuffle(ranks)
        order = Loset(Carrier(tuple(labels)), tuple(ranks))
        report = order_completeness_report(order)
        assert report.equivalence_holds


def test_completeness_cap():
    order = Loset.chain(tuple(f"e{i}" for i in range(13)))
    with pytest.raises(TooLarge):
        order_completeness_report(order)


# ---------------------------------------------------------------------------
# projection

def test_projection_two_singleton_bubbles():
    r = preorder(AB, [("a", "b")])
    report = projection_check(bubble_decompose(r))
    assert report.all_pass()


def test_projection_two_bubble_example():
    carrier = Carrier(("x1", "x2", "y"))
    r = preorder(carrier, [("x1", "y"), ("x2", "y")])
    system = bubble_decompose(r)
    report = projection_check(system)
    assert report.all_pass()
    # the coproduct topology is exactly the pulled-back index topology
    t = interval_topology(r)
    assert t.sorted_opens() == [(), ("y",), ("x1", "x2"), ("x1", "x2", "y")]


def test_projection_single_bubble_degenerate():
    system = bubble_decompose(full_relation(ABC))
    assert projection_check(system).all_pass()


def test_projection_random_systems():
    rnd = random.Random(31)
    for _ in range(60):
        system = random_bubble_system(rnd, max_index=5, max_bubble=2)
        if system.carrier.n > 14:
            continue
        assert projection_check(system).all_pass()


# ---------------------------------------------------------------------------
# continuity

def test_identity_is_continuous():
    t = interval_topology(chain(("a", "b", "c")))
    assert continuity_check({x: x for x in ("a", "b", "c")}, t, t).holds


def test_two_bubble_utility_is_continuous_on_value_grid():
    carrier = Carrier(("x1", "x2", "y"))
    r = preorder(carrier, [("x1", "y"), ("x2", "y")])
    values = generalized_utility(r).values
    grid = Loset.chain(("0", "1"))
    grid_topology = interval_topology(grid.relation())
    assert set(map(frozenset, grid_topology.sorted_opens())) == {
        frozenset(),
        frozenset({"0"}),
        frozenset({"1"}),
        frozenset({"0", "1"}),
    }
    mapping = {x: str(v) for x, v in values.items()}
    assert continuity_check(mapping, interval_topology(r), grid_topology).holds


def test_constant_map_is_continuous():
    source = interval_topology(full_relation(ABC))
    target = interval_topology(chain(("p", "q")))
    assert continuity_check({x: "p" for x in ABC.elements}, source, target).holds


def test_discontinuous_map_detected():
    # a3-chain's topology is discrete, the indiscrete target pulls back fine,
    # but mapping an indiscrete source onto a discrete target must fail
    source = generate_topology(ABC, [])
    target = interval_topology(chain(("p", "q")))
    verdict = continuity_check({"a": "p", "b": "q", "c": "q"}, source, target)
    assert not verdict.holds
    assert verdict.witness is not None


def test_utility_continuity_small_exhaustive():
    from ordbubble import enumerate_preorders
    from ordbubble.errors import NotNegativelyTransitive

    for n in (1, 2, 3):
        for r in enumerate_preorders(n):
            try:
                values = generalized_utility(r).values
            except NotNegativelyTransitive:
                continue
            grid_labels = sorted({str(v) for v in values.values()}, key=Fraction)
            grid_topology = interval_topology(Loset.chain(tuple(grid_labels)).relation())
            mapping = {x: str(v) for x, v in values.items()}
            assert continuity_check(mapping, interval_topology(r), grid_topology).holds


# ---------------------------------------------------------------------------
# the neighbourhood model against the enumerated reference in oracles.py

def extent_subbase(relation):
    """The rows of a preorder as a subbase: it generates the topology whose
    neighbourhoods are the rows, so every finite topology arises."""
    elems = relation.carrier.elements
    return [
        Interval("bounded", None, None, frozenset(e for j, e in enumerate(elems) if row >> j & 1))
        for row in relation.rows
    ]


def random_preorder(rnd, n):
    labels = tuple(f"e{i}" for i in range(n))
    density = rnd.choice((0.05, 0.1, 0.2, 0.35))
    pairs = [(x, y) for x in labels for y in labels if rnd.random() < density]
    return transitive_closure(preorder(Carrier(labels), pairs))


def assert_matches_enumeration(carrier, subbase, rnd):
    """Generation, bases, connectivity, minimal opens and dense subsets
    agree with the enumerated reference; returns both topologies."""
    ours = generate_topology(carrier, subbase)
    ref = oracles.enumerated_topology(carrier, subbase)
    assert ours.sorted_opens() == ref.sorted_opens()
    assert ours.opens == ref.opens
    assert connectivity_report(ours) == oracles.enumerated_connectivity(ref)
    opens = ref.sorted_opens()
    families = [
        sorted((e for e in unique_extents(subbase) if e), key=sorted),
        rnd.sample(opens, rnd.randint(0, len(opens))),
        [labels for labels in opens if len(labels) != 1],
    ]
    for family in families:
        assert is_base(family, ours) == oracles.enumerated_is_base(family, ref)
    assert sorted(_minimal_opens(ours)) == sorted(oracles.enumerated_minimal_opens(ref))
    dense = set(ours.labels_of(_minimal_dense_subset(ours)))
    assert dense == oracles.enumerated_minimal_dense_subset(ref)
    return ours, ref


def images(mapping, source, target):
    """The map as the private checks take it: one-bit target masks."""
    return [1 << target.carrier.position(mapping[x]) for x in source.carrier.elements]


def assert_map_matches_enumeration(mapping, source, target):
    (ours_s, ref_s), (ours_t, ref_t) = source, target
    image_of = images(mapping, ours_s, ours_t)
    assert continuity_check(mapping, ours_s, ours_t) == oracles.enumerated_continuity(
        mapping, ref_s, ref_t
    )
    assert _is_open_map(image_of, ours_s, ours_t) == oracles.enumerated_is_open_map(
        mapping, ref_s, ref_t
    )
    assert _is_preimage_topology(image_of, ours_s, ours_t) == (
        oracles.enumerated_is_preimage_topology(mapping, ref_s, ref_t)
    )


def pulled_back(relation, mapping, target):
    """The preorder x <= y iff f(x) <= f(y)."""
    elems = relation.carrier.elements
    return make_relation(
        relation.carrier,
        [(x, y) for x in elems for y in elems if target.has(mapping[x], mapping[y])],
    )


def check_maps_into(rnd, relation, targets):
    """Random maps and pull-back maps into each target, on the interval
    and the row topologies."""
    source_pairs = {}
    elems = relation.carrier.elements
    for target in targets:
        for mapping in (
            {x: rnd.choice(target.carrier.elements) for x in elems},
            {x: rnd.choice(target.carrier.elements[:2]) for x in elems},
        ):
            pullback = pulled_back(relation, mapping, target)
            for source_relation, make_subbase in (
                (relation, open_intervals),
                (relation, extent_subbase),
                (pullback, extent_subbase),
            ):
                key = (source_relation.rows, make_subbase)
                if key not in source_pairs:
                    source_pairs[key] = assert_matches_enumeration(
                        source_relation.carrier, make_subbase(source_relation), rnd
                    )
                target_pair = assert_matches_enumeration(
                    target.carrier, make_subbase(target), rnd
                )
                assert_map_matches_enumeration(mapping, source_pairs[key], target_pair)


def test_neighbourhood_model_matches_enumeration_on_every_small_preorder():
    rnd = random.Random(37)
    targets = [chain(("p", "q")), preorder(ABC, [("a", "b"), ("c", "b")])]
    for n in (1, 2, 3, 4):
        for relation in enumerate_preorders(n):
            check_maps_into(rnd, relation, targets)


def test_neighbourhood_model_matches_enumeration_on_random_preorders():
    rnd = random.Random(41)
    for _ in range(40):
        relation = random_preorder(rnd, rnd.randint(5, 12))
        targets = [random_preorder(rnd, rnd.randint(2, 5)), chain(("p", "q", "r"))]
        check_maps_into(rnd, relation, targets)


def test_projection_reports_match_enumeration():
    rnd = random.Random(43)
    checked = 0
    while checked < 60:
        system = random_bubble_system(rnd, max_index=6, max_bubble=3)
        if system.carrier.n > 12:
            continue
        assert projection_check(system) == oracles.enumerated_projection_check(system)
        relation = bubble_compose(system)
        assert_matches_enumeration(relation.carrier, open_intervals(relation), rnd)
        checked += 1


# ---------------------------------------------------------------------------
# the ray generation and the mask checks against the label-set path in
# oracles.py, past the sizes the enumerated reference reaches

def test_ray_topology_matches_the_interval_subbase():
    rnd = random.Random(47)
    relations = [r for n in (1, 2, 3, 4) for r in enumerate_preorders(n)]
    relations += [random_preorder(rnd, rnd.randint(1, 64)) for _ in range(30)]
    relations += [oracles.label_bubble_compose(s) for s in oracles.seeded_systems(30, 64, seed=53)]
    for relation in relations:
        assert interval_topology(relation) == generate_topology(
            relation.carrier, open_intervals(relation)
        )


def test_maps_match_the_label_set_checks():
    rnd = random.Random(59)
    for _ in range(30):
        source = interval_topology(random_preorder(rnd, rnd.randint(13, 64)))
        target = interval_topology(random_preorder(rnd, rnd.randint(2, 8)))
        labels = target.carrier.elements
        for mapping in (
            {x: rnd.choice(labels) for x in source.carrier.elements},
            {x: rnd.choice(labels[:2]) for x in source.carrier.elements},
            dict.fromkeys(source.carrier.elements, labels[0]),
        ):
            image_of = images(mapping, source, target)
            assert continuity_check(mapping, source, target) == oracles.label_continuity_check(
                mapping, source, target
            )
            assert _is_open_map(image_of, source, target) == oracles.label_is_open_map(
                mapping, source, target
            )
            assert _is_preimage_topology(image_of, source, target) == (
                oracles.label_is_preimage_topology(mapping, source, target)
            )


def test_projection_reports_match_the_label_set_path():
    systems = [bubble_decompose(r) for r in oracles.decomposable_preorders()]
    systems += oracles.seeded_systems(40, 64, seed=61)
    for system in systems:
        assert projection_check(system) == oracles.label_projection_check(system)


def test_mask_path_builds_no_intervals(monkeypatch, tmp_path):
    system = oracles.shuffled_bubble_system(random.Random(64), 64)
    relation = oracles.label_bubble_compose(system)
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(relation.to_json_dict()))
    built = []
    init = Interval.__init__
    monkeypatch.setattr(Interval, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    interval_topology(relation)
    projection_check(system)
    assert main(["utility", "--in", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert built == []
    open_intervals(relation)
    assert built


def test_listing_opens_costs_per_open(monkeypatch):
    probes = []
    is_open = FiniteTopology._is_open_mask
    monkeypatch.setattr(
        FiniteTopology, "_is_open_mask", lambda self, mask: probes.append(mask) or is_open(self, mask)
    )
    labels = tuple(f"e{i}" for i in range(16))
    assert generate_topology(Carrier(labels), []).sorted_opens() == [(), labels]
    assert probes == []
    assert len(interval_topology(chain(labels[:14])).opens) == 1 << 14


# ---------------------------------------------------------------------------
# the row kernels against the loops they replaced (kept in oracles.py)

def rays(relation):
    """The strict part's rows and columns, from the four derived parts."""
    strict = derived_parts(relation).asymmetric_part
    return [*strict.rows, *transform(strict, "inverse").rows]


def refusal(build):
    """The class and message a call raises, or None."""
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_generation_matches_the_loop_on_every_small_preorder():
    relations = [r for n in (1, 2, 3, 4) for r in enumerate_preorders(n)]
    assert len(relations) == 389
    for relation in relations:
        expected = oracles.loop_generate(relation.n, rays(relation))
        assert interval_topology(relation).neighbourhoods == expected, relation.rows


@pytest.mark.parametrize("n", [31, 32, 33, 64, 256, 1024])
def test_generation_matches_the_loop_on_seeded_and_tampered_subbases(n):
    rnd = random.Random(n)
    for relation in (
        bubble_compose(oracles.shuffled_bubble_system(rnd, n)),
        oracles.ordinal_sum(rnd, n),
        oracles.sparse_poset(rnd, n),
    ):
        subbase = rays(relation)
        assert interval_topology(relation).neighbourhoods == oracles.loop_generate(n, subbase)
        k = rnd.randrange(2 * n)
        subbase[k] ^= 1 << rnd.randrange(n)
        assert _generate(relation.carrier, subbase).neighbourhoods == oracles.loop_generate(n, subbase)


def test_validation_refuses_as_the_loop_on_every_small_tuple():
    # out-of-range and negative masks included, and tuples of the wrong length
    for n in (1, 2, 3):
        carrier = Carrier(tuple(f"e{i}" for i in range(n)))
        values = range(-3, (1 << n) + 3)
        tuples = [*product(values, repeat=n), *product(values, repeat=n - 1), (1,) * (n + 1)]
        refused = 0
        for hoods in tuples:
            expected = refusal(lambda: oracles.loop_validate(n, hoods))
            assert refusal(lambda: FiniteTopology(carrier, hoods)) == expected, hoods
            refused += expected is not None
        assert 0 < refused < len(tuples)


def tampered(relation, rnd):
    """One bit of the relation flipped, then closed into a preorder again."""
    n = relation.n
    rows = list(relation.rows)
    rows[rnd.randrange(n)] ^= 1 << rnd.randrange(n)
    return Relation(relation.carrier, closure_rows(tuple(row | 1 << i for i, row in enumerate(rows)), n))


def test_projection_reports_match_the_label_set_path_on_tampered_compositions(monkeypatch):
    # the system stays valid and its composition is replaced: the round trip
    # must fail wherever an extent is no longer saturated
    rnd = random.Random(67)
    systems = [bubble_decompose(r) for r in oracles.decomposable_preorders() if r.n <= 3]
    systems += oracles.seeded_systems(40, 40, seed=71)
    unsaturated = 0
    for system in systems:
        composed = tampered(bubble_compose(system), rnd)
        monkeypatch.setattr(topology, "bubble_compose", lambda _: composed)
        monkeypatch.setattr(oracles, "bubble_compose", lambda _: composed)
        report = projection_check(system)
        assert report == oracles.label_projection_check(system)
        unsaturated += not report.extent_bijection
    assert unsaturated > len(systems) // 4
