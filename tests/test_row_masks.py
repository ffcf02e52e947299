"""The row- and block-mask bubble pipeline against the label-level loops it
replaced (kept in ``oracles``): identical relations, systems and utilities
on every bubble-decomposable preorder with n <= 4 and on seeded bubble
systems up to n = 64; the utility and index checks report the oracle's
check name and witness on tampered values, and decompose, compose and
utility raise them; the pipeline probes no label pair, validates no
equivalence and, with the topology calls, stays within pinned counts of
carrier-size transposes and composition kernels; and
``_first_violation`` runs only the kernels it is asked for."""

import random
from fractions import Fraction

import pytest

import oracles
from oracles import decomposable_preorders, seeded_systems, shuffled_bubble_system
from ordbubble import (
    Carrier,
    EquivalenceRelation,
    InvariantViolation,
    NotAPartialOrder,
    NotAnEquivalence,
    NotNegativelyTransitive,
    Relation,
    ValidationError,
    bubble_compose,
    bubble_decompose,
    cantor_embed,
    check_properties,
    combine,
    coproduct_preorder,
    derived_parts,
    enumerate_preorders,
    factor_relation,
    generalized_utility,
    interval_topology,
    make_relation,
    projection_check,
    szpilrajn_extend,
    szpilrajn_step,
    weak_factor_relation,
)
from ordbubble import cli, order_ext, relations, structure, topology
from ordbubble.relations import _first_violation, all_rows
from ordbubble.structure import Bubble, BubbleSystem, Loset, _index_violation
from ordbubble.order_ext import _utility_violation


def assert_pipeline_matches(relation: Relation):
    system = bubble_decompose(relation)
    assert system.to_json_dict() == oracles.label_bubble_decompose(relation)
    assert system.index.relation() == oracles.label_loset_relation(system.index)
    assert bubble_compose(system) == oracles.label_bubble_compose(system) == relation

    parts = derived_parts(relation)
    glue = EquivalenceRelation(combine(parts.symmetric_part, parts.incomparability, "union"))
    assert factor_relation(parts.asymmetric_part, glue).relation == oracles.label_factor_relation(
        parts.asymmetric_part, glue
    )
    assert weak_factor_relation(relation, glue).relation == oracles.label_weak_factor_relation(
        relation, glue
    )

    grid = cantor_embed(system.index)
    values = generalized_utility(relation).values
    assert dict(values) == {x: grid[system.projection[x]] for x in relation.carrier.elements}
    assert oracles.label_utility_check(relation, values) is None
    return system


def test_pipeline_matches_label_loops_on_every_small_decomposable_preorder():
    checked = sum(1 for r in decomposable_preorders() if assert_pipeline_matches(r))
    assert checked == 1 + 4 + 23 + 175


def test_pipeline_matches_label_loops_on_seeded_systems():
    for system in seeded_systems():
        relation = oracles.label_bubble_compose(system)
        assert bubble_compose(system) == relation
        again = assert_pipeline_matches(relation)
        assert again.same_shape(system)


def test_quotients_match_label_loops_on_every_small_relation():
    # weak factors of arbitrary relations; factors where saturation holds
    carrier = Carrier(("a", "b", "c"))
    for equivalence in oracles.all_equivalences_on(carrier.elements):
        for rows in all_rows(3):
            r = Relation(carrier, rows)
            weak = weak_factor_relation(r, equivalence).relation
            assert weak == oracles.label_weak_factor_relation(r, equivalence)
            if oracles.naive_saturated(r, equivalence.underlying, "full"):
                strict = factor_relation(r, equivalence).relation
                assert strict == oracles.label_factor_relation(r, equivalence) == weak


def test_coproduct_rows_match_label_loops_over_partial_orders():
    # a partially ordered index, preordered summands of several sizes
    rnd = random.Random(3)
    for index_order in oracles.all_partial_orders_on(("p", "q", "r")):
        summands, carrier = {}, []
        for label in index_order.carrier.elements:
            size = rnd.randint(1, 3)
            elems = tuple(f"{label}{k}" for k in range(size))
            rows = rnd.choice(list(enumerate_preorders(size))).rows
            summands[label] = Relation(Carrier(elems), rows)
            carrier.extend(elems)
        rnd.shuffle(carrier)
        relation, projection = coproduct_preorder(index_order, summands, carrier=Carrier(tuple(carrier)))
        assert relation.rows == oracles.label_coproduct_rows(
            index_order, summands, relation.carrier, projection
        )


def tampered_values(rnd: random.Random, values: list) -> list:
    out = list(values)
    n = len(out)
    kind = rnd.randrange(4)
    i, j = rnd.randrange(n), rnd.randrange(n)
    if kind == 0:
        out[i], out[j] = out[j], out[i]
    elif kind == 1:
        out[i] = out[j]
    elif kind == 2:
        out[i] = Fraction(rnd.randrange(1, 8), 8)
    else:
        out = [Fraction(rnd.randrange(4)) for _ in range(n)]
    return out


def assert_checks_match_oracle(relation: Relation, values: list, ranks: list):
    elems = relation.carrier.elements
    parts = derived_parts(relation)
    strict = parts.asymmetric_part
    glue = derived_parts(strict).incomparability
    found = _utility_violation(values, strict.rows, glue.rows)
    expected = oracles.label_utility_check(relation, dict(zip(elems, values)))
    assert (None if found is None else (found[0], (elems[found[1]], elems[found[2]]))) == expected
    pair = _index_violation(strict.rows, ranks)
    expected = oracles.label_index_check(strict, dict(zip(elems, ranks)))
    assert (None if pair is None else (elems[pair[0]], elems[pair[1]])) == expected
    return found


def test_checks_report_the_oracle_witness_on_tampered_values():
    rnd = random.Random(11)
    names = set()
    relations_ = list(decomposable_preorders())
    relations_ += [oracles.label_bubble_compose(s) for s in seeded_systems(60, 24, seed=12)]
    for relation in relations_:
        system = bubble_decompose(relation)
        elems = relation.carrier.elements
        values = [generalized_utility(relation).values[x] for x in elems]
        ranks = [system.index.rank_of(system.projection[x]) for x in elems]
        assert assert_checks_match_oracle(relation, values, ranks) is None
        for _ in range(6):
            bad_ranks = [int(v * 3) for v in tampered_values(rnd, [Fraction(r) for r in ranks])]
            found = assert_checks_match_oracle(relation, tampered_values(rnd, values), bad_ranks)
            if found is not None:
                names.add(found[0])
    assert names == {"utility-strict", "utility-level"}


def test_utility_raises_the_oracle_check_name(monkeypatch):
    # b below a; tampered grids make both checks fail at (a, b)
    relation = make_relation(Carrier(("a", "b")), [("a", "a"), ("b", "b"), ("b", "a")])
    system = bubble_decompose(relation)
    embed = order_ext.cantor_embed
    for tamper, check in [
        (lambda grid: dict.fromkeys(grid, Fraction(0)), "utility-level"),
        (lambda grid: {label: 1 - value for label, value in grid.items()}, "utility-strict"),
    ]:
        values = {x: tamper(embed(system.index))[system.projection[x]] for x in "ab"}
        assert oracles.label_utility_check(relation, values) == (check, ("a", "b"))
        monkeypatch.setattr(order_ext, "cantor_embed", lambda index, t=tamper: t(embed(index)))
        with pytest.raises(InvariantViolation) as info:
            generalized_utility(relation)
        assert str(info.value) == f"invariant violated: {check}: ('a', 'b')"


def test_compose_raises_strict_matches_index():
    # two singleton bubbles, a below b; rank_of is reversed after composing
    class ReversedRanks(Loset):
        def rank_of(self, label):
            return self.n - 1 - super().rank_of(label)

    carrier = Carrier(("a", "b"))
    index = ReversedRanks(Carrier(("I0", "I1")), (0, 1))
    bubbles = tuple(Bubble((x,), EquivalenceRelation(make_relation(Carrier((x,)), [(x, x)]))) for x in "ab")
    system = BubbleSystem(carrier=carrier, index=index, bubbles=bubbles, projection={"a": "I0", "b": "I1"})
    with pytest.raises(InvariantViolation) as info:
        bubble_compose(system)
    assert str(info.value) == "invariant violated: strict-matches-index: ('a', 'b')"
    strict = derived_parts(oracles.label_bubble_compose(system)).asymmetric_part
    assert oracles.label_index_check(strict, {"a": 1, "b": 0}) == ("a", "b")


def test_compose_raises_composed_glue_partition():
    # one bubble {a, b} whose inner relation, proved without the kernels, is
    # the chain a < b: a bubbling, but its incomparability is no bubble
    carrier = Carrier(("a", "b"))
    chain = make_relation(carrier, [("a", "a"), ("b", "b"), ("a", "b")])
    bubble = Bubble(("a", "b"), EquivalenceRelation._proved(chain))
    system = BubbleSystem(carrier=carrier, index=Loset.chain(("I0",)), bubbles=(bubble,), projection={"a": "I0", "b": "I0"})
    with pytest.raises(InvariantViolation) as info:
        bubble_compose(system)
    assert info.value.check == "composed-glue-partition"


def test_decompose_reports_rank_levels_without_a_witness(monkeypatch):
    # a below b, c incomparable to both: the rank check refuses, and the
    # scan's witness is reported; a scan that found none is an invariant
    relation = make_relation(Carrier(("a", "b", "c")), [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b")])
    with pytest.raises(NotNegativelyTransitive) as refused:
        bubble_decompose(relation)
    assert refused.value.witness == ("a", "c", "b")
    monkeypatch.setattr(structure, "_neg_transitive_witness", lambda rows, n: None)
    with pytest.raises(InvariantViolation) as info:
        bubble_decompose(relation)
    assert info.value.check == "bubble-rank-levels"


def test_pipeline_makes_no_label_probes(monkeypatch):
    system = shuffled_bubble_system(random.Random(64), 64)
    relation = oracles.label_bubble_compose(system)
    calls = []
    has = Relation.has
    monkeypatch.setattr(Relation, "has", lambda self, x, y: calls.append((x, y)) or has(self, x, y))
    bubble_decompose(relation)
    bubble_compose(system)
    generalized_utility(relation)
    assert calls == []


def test_pipeline_runs_no_equivalence_validations(monkeypatch):
    # each inner equivalence is proved, not validated again with the kernels
    calls = []
    post_init = EquivalenceRelation.__post_init__
    monkeypatch.setattr(EquivalenceRelation, "__post_init__", lambda self: calls.append(self) or post_init(self))
    relation = oracles.label_bubble_compose(shuffled_bubble_system(random.Random(64), 64))
    calls.clear()
    oracles.factor_bubble_decompose(relation)
    assert len(calls) == 30  # the quotient route: the glue and one per bubble
    calls.clear()
    bubble_decompose(relation)
    generalized_utility(Relation(relation.carrier, relation.rows))
    assert calls == []


def kernel_spender(monkeypatch, n):
    """A ``spend(call)`` returning the call's result and its counts of
    carrier-size (n) transposes and composition kernels."""
    counts = {"transpose": 0, "compose": 0}
    transpose, compose = relations.transpose_rows, relations._compose_witness

    def counted(name, fn):
        def call(*args):
            counts[name] += args[-1] == n
            return fn(*args)
        return call

    for module in (relations, topology):
        monkeypatch.setattr(module, "transpose_rows", counted("transpose", transpose))
        monkeypatch.setattr(module, "_compose_witness", counted("compose", compose))

    def spend(call):
        counts.update(transpose=0, compose=0)
        out = call()
        return out, (counts["transpose"], counts["compose"])

    return spend


def test_pipeline_kernel_call_budget(monkeypatch):
    """Carrier-size transposes and composition kernels per call on one seeded
    n = 64 system.  Each relation transposes once, and derived parts inherit
    their transposes.  A change may lower these pins but not raise them."""
    n = 64
    spend = kernel_spender(monkeypatch, n)
    base = oracles.label_bubble_compose(shuffled_bubble_system(random.Random(64), n))
    relation = Relation(base.carrier, base.rows)
    system, spent = spend(lambda: bubble_decompose(relation))
    assert spent == (1, 0)  # was (1, 1): the bubbling check needs no product
    assert spend(lambda: bubble_compose(system))[1] == (1, 0)  # was (1, 1)
    assert spend(lambda: generalized_utility(relation))[1] == (0, 0)  # reuses decompose's transpose; was (0, 1)
    fresh = Relation(base.carrier, base.rows)
    assert spend(lambda: generalized_utility(fresh))[1] == (1, 0)  # was (1, 1)

    # a topology: the relation's transpose and the subbase's membership
    # transpose; the preorder check, the neighbourhoods' transitivity and
    # the subbase-open accept.  The projection check adds the neighbourhoods'
    # transpose, cached for connectivity and the minimal opens; the index
    # side is smaller than n.  The utility verb's grid chain is too.
    assert spend(lambda: interval_topology(Relation(base.carrier, base.rows)))[1] == (2, 3)
    assert spend(lambda: projection_check(system))[1] == (3, 3)  # was (4, 3)
    assert spend(lambda: cli._run_utility(Relation(base.carrier, base.rows)))[1] == (2, 3)

    # a step transposes its input and its output, and an extension each
    # step's output once: the next step reads it
    poset = oracles.sparse_poset(random.Random(64), n)
    i, j = next((i, j) for i in range(n) for j in range(n) if i != j and not (poset.rows[i] | poset._tr[i]) >> j & 1)
    assert spend(lambda: szpilrajn_step(Relation(poset.carrier, poset.rows), f"x{i}", f"x{j}"))[1] == (2, 2)  # was (3, 2)
    steps = []
    monkeypatch.setattr(order_ext, "szpilrajn_step", lambda *args: steps.append(args) or szpilrajn_step(*args))
    spent = spend(lambda: szpilrajn_extend(Relation(poset.carrier, poset.rows)))[1]
    assert len(steps) > 1 and spent == (len(steps) + 1, 2 * len(steps) + 2)  # was (3 steps + 2, 2 steps + 2)


def test_topology_verb_kernel_call_budget(monkeypatch):
    """The topology verb on a 16-chain verifies the preorder once, for both
    the topology and the gaps: the relation's, the subbase's and the
    neighbourhoods' transposes; the preorder check, the neighbourhoods'
    transitivity and the subbase-open accept."""
    n = 16
    spend = kernel_spender(monkeypatch, n)
    chain = Loset.chain(tuple(f"x{i}" for i in range(n))).relation()
    payload, spent = spend(lambda: cli._run_topology(Relation(chain.carrier, chain.rows))[0])
    assert len(payload["opens"][0]) == 1 << n
    assert spent == (3, 3)  # was (3, 4): the gaps checked the preorder again


# ---------------------------------------------------------------------------
# the named-flag checks

def refusal(report, flags):
    """The flag and witness the check_properties loops used to report."""
    for flag in flags:
        if not getattr(report, flag):
            return flag, report.witnesses.get(flag, ())
    return None


def test_first_violation_matches_the_scans():
    flag_sets = [
        ("reflexive", "symmetric", "transitive"),
        ("reflexive", "antisymmetric", "transitive", "complete"),
        ("asymmetric", "transitive"),
        ("negatively_transitive", "irreflexive", "complete"),
    ]
    for n in range(1, 4):
        carrier = Carrier(tuple(f"e{i}" for i in range(n)))
        for rows in all_rows(n):
            r = Relation(carrier, rows)
            for flags in flag_sets:
                expected = next(
                    ((flag, tuple(carrier.elements[i] for i in w))
                     for flag in flags if (w := oracles.SCANS[flag](rows, n)) is not None),
                    None,
                )
                assert _first_violation(r, flags) == expected, (rows, flags)


def test_boundaries_refuse_with_the_same_flag_and_witness():
    checks = [
        (EquivalenceRelation, NotAnEquivalence, ("reflexive", "symmetric", "transitive"), "relation is not {}"),
        (Loset.from_relation, ValidationError, ("reflexive", "antisymmetric", "transitive", "complete"),
         "relation is not a linear order: not {}"),
        (lambda r: szpilrajn_step(r, "e0", "e1"), NotAPartialOrder, ("reflexive", "antisymmetric", "transitive"),
         "relation is not a partial order: not {}"),
    ]
    carrier = Carrier(("e0", "e1", "e2"))
    for rows in all_rows(3):
        r = Relation(carrier, rows)
        report = check_properties(r)
        for build, error, flags, message in checks:
            expected = refusal(report, flags)
            if expected is None:
                continue
            with pytest.raises(error) as info:
                build(r)
            assert (str(info.value), info.value.witness) == (message.format(expected[0]), expected[1])


def test_first_violation_runs_only_the_named_kernels(monkeypatch):
    transposes = []
    transpose = relations.transpose_rows
    monkeypatch.setattr(relations, "transpose_rows", lambda rows, n: transposes.append(n) or transpose(rows, n))

    def forbidden(*args):
        raise AssertionError("kernel not named")

    for name in ("_irreflexive_witness", "_antisymmetric_witness", "_asymmetric_witness",
                 "_complete_witness", "_neg_transitive_witness"):
        monkeypatch.setattr(relations, name, forbidden)
    carrier = Carrier(("a", "b", "c"))
    chain = make_relation(carrier, [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b")])
    assert _first_violation(chain, ("reflexive", "transitive")) is None
    assert transposes == []
    assert _first_violation(make_relation(carrier, []), ("reflexive", "symmetric")) == ("reflexive", ("a",))
    assert transposes == []
    EquivalenceRelation(make_relation(carrier, [(x, x) for x in "abc"]))
    assert transposes == [3]
    monkeypatch.setattr(relations, "_antisymmetric_witness", lambda rows, tr, n: None)
    assert _first_violation(chain, ("reflexive", "antisymmetric", "transitive", "symmetric")) == (
        "symmetric", ("a", "b")
    )
    assert transposes == [3, 3]
