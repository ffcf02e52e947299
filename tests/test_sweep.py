import hashlib
import json
import random
from math import comb, factorial

import oracles
import pytest

from ordbubble import sweep
from ordbubble.errors import TooLarge, ValidationError
from ordbubble.relations import all_rows
from ordbubble.sweep import (
    SweepTallies,
    _pack,
    count_split_pairs,
    exhaustive_logic_sweep,
    pair_battery,
    random_bubble_system,
    random_logic_sweep,
    relation_battery,
    run_sweep,
)

FAULT_SETTINGS = ((), ("saturation",), ("negative-transitivity",), ("saturation", "negative-transitivity"))

# sha256 of json.dumps(run_sweep(n, faults=f), sort_keys=True), computed with
# the per-relation batteries that now live in ``oracles``
SWEEP_DIGESTS = {
    (1, ()): "b1c9bff583322bcc224dcf2ccd47ad23436c557b4ca93c061623fc65c022186c",
    (1, ("saturation",)): "d3cee353059d1af2db6fff101370267aaa6997cde3960719ab2e37a4191a8f46",
    (1, ("negative-transitivity",)): "dfbf8417b0681052715bb85d9cb0438aabd4e438650a8a9df88ef1615e6c515c",
    (1, ("saturation", "negative-transitivity")): "209dde1178c8f1c41d3ed71fa5413578d25b028238e17f5ac703f45800b0a4e8",
    (2, ()): "8dcb2119543252e551907f3b6906d8e4d75d5213eebab223d54ccce618dd1ae0",
    (2, ("saturation",)): "856044b2ca99e0c44bb8bc821c9d150c0e21b20a14995c7d41f00b134af87eb6",
    (2, ("negative-transitivity",)): "a400a17bd33ae4aa03e89dddf3550d88796a2d72c0dc893966e8ca4767e07c88",
    (2, ("saturation", "negative-transitivity")): "c109b0d26081fcc9ad9d93bd8f0d8170eac116ca49a528f0381c06c33d2479f7",
    (3, ()): "b7f6e589a51735b1215193591b2fd566f455524501181e69287247f0ed471a1a",
    (3, ("saturation",)): "8a2664406fdf4f775fe5b514a344aa1bd90fcaeaf1264c2e32b36a162acfbb3a",
    (3, ("negative-transitivity",)): "862c22b3076bbec3657eb4a2ae2ae1c6e597bac0779d6e3bf13d6fc3c7ce49ab",
    (3, ("saturation", "negative-transitivity")): "b557f23e1829677d2091b3d712f0247ca54eaba2cc7ac8549d465e7754b3fae0",
    (4, ()): "2640845f5137fc5b22f25bc444a331ea2e414c74def0074f534adcdc703af964",
    (4, ("saturation",)): "c247c8c1d8dc3edfa1900bc5124b46492c0d9f9176f66125f1a551918a98eb65",
    (4, ("negative-transitivity",)): "93831c1a3be7048f9612ea111de3deb13f6483876eb31ef2f6c612156170dd50",
    (4, ("saturation", "negative-transitivity")): "b2e65b5a5780da610a7361b693c796f0dadc2917a87dd5eff0b8ae13bc56a593",
}


def tally_table(tallies):
    return {name: (t.instances, t.failures, t.first_failure) for name, t in tallies.checks.items()}


def test_run_sweep_counts_and_cleanliness():
    result = run_sweep(3)
    assert result["failures_total"] == 0
    assert result["preorder_count_filter"] == 29
    assert result["preorder_count_pairs"] == 29
    assert result["checks"]["derived-part-identities"]["instances"] == 512


def test_run_sweep_rejects_large_and_unknown_fault():
    with pytest.raises(TooLarge):
        run_sweep(5)
    with pytest.raises(ValidationError):
        run_sweep(2, faults=["nonsense"])


def test_all_rows_is_exhaustive():
    assert sum(1 for _ in all_rows(2)) == 16
    assert len(set(all_rows(2))) == 16


def test_split_pair_counts():
    assert [count_split_pairs(n) for n in (1, 2, 3)] == [1, 4, 29]


def test_split_pair_count_matches_filter_at_four():
    from ordbubble import enumerate_preorders

    assert count_split_pairs(4) == sum(1 for _ in enumerate_preorders(4)) == 355


def test_saturation_fault_surfaces_in_battery():
    samples = list(all_rows(2))
    T, full = _pack(samples, 2)
    tallies = SweepTallies()
    relation_battery(T, full, tallies, samples.__getitem__, faults=frozenset({"saturation"}))
    assert tallies.failures_total() > 0
    clean = SweepTallies()
    relation_battery(T, full, clean, samples.__getitem__)
    assert clean.failures_total() == 0


def test_negative_transitivity_fault_surfaces():
    samples = list(all_rows(2))
    T, full = _pack(samples, 2)
    tallies = SweepTallies()
    relation_battery(T, full, tallies, samples.__getitem__, faults=frozenset({"negative-transitivity"}))
    assert tallies.failures_total() > 0


def test_pair_battery_detects_corruption():
    tallies = SweepTallies()
    diagonal = (1, 2)
    strict = (2, 0)  # one strict pair over the diagonal equivalence
    (E, full), (F, _) = _pack([diagonal], 2), _pack([strict], 2)
    pair_battery(E, F, full, tallies, lambda k: (diagonal, strict), faults=frozenset({"saturation"}))
    assert tallies.failures_total() > 0


def test_random_system_generation_is_seed_deterministic():
    first = random_bubble_system(random.Random(5))
    second = random_bubble_system(random.Random(5))
    assert first.same_shape(second)
    assert first.carrier == second.carrier
    assert first.projection == second.projection


# ---------------------------------------------------------------------------
# the truth-table battery against the per-relation one, and the census

@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("faults", FAULT_SETTINGS)
def test_sweep_report_bytes_are_pinned(n, faults):
    report = json.dumps(run_sweep(n, faults=faults), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == SWEEP_DIGESTS[(n, faults)]


@pytest.mark.parametrize("faults", FAULT_SETTINGS)
def test_exhaustive_tallies_match_the_per_relation_batteries(faults):
    for n in (1, 2, 3):
        tables, rows = SweepTallies(), SweepTallies()
        exhaustive_logic_sweep(n, tables, frozenset(faults))
        oracles.row_exhaustive_logic_sweep(n, rows, frozenset(faults))
        assert tally_table(tables) == tally_table(rows), (n, faults)


def test_random_tallies_match_the_per_relation_batteries():
    tables, rows = SweepTallies(), SweepTallies()
    random_logic_sweep(2_000, (4, 5, 6), seed=90_210, tallies=tables)
    oracles.row_random_logic_sweep(2_000, (4, 5, 6), seed=90_210, tallies=rows)
    assert tally_table(tables) == tally_table(rows)
    assert tables.failures_total() == 0


def test_random_first_failure_is_the_earliest_sample_across_sizes(monkeypatch):
    # negate negative transitivity on both sides; the first failures must
    # name the same sample, whichever size it was drawn at
    negated = sweep._negatively_transitive
    monkeypatch.setattr(sweep, "_negatively_transitive", lambda T: ~negated(T))
    monkeypatch.setitem(oracles._NEGATIVELY_TRANSITIVE, False, oracles._NEGATIVELY_TRANSITIVE[True])
    tables, rows = SweepTallies(), SweepTallies()
    random_logic_sweep(300, (5, 3, 4), seed=7, tallies=tables)
    oracles.row_random_logic_sweep(300, (5, 3, 4), seed=7, tallies=rows)
    assert tables.failures_total() > 0
    assert tally_table(tables) == tally_table(rows)


def bell(n):
    numbers = [1]
    for m in range(n):
        numbers.append(sum(comb(m, k) * numbers[k] for k in range(m + 1)))
    return numbers[n]


def ordered_census(n, weight):
    """Sum over ordered set partitions of n of the product of weight(block
    size): c(0) = 1, c(n) = sum over k of C(n, k) * weight(k) * c(n - k)."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(comb(m, k) * weight(k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def test_sweep_counts_match_the_census():
    preorders = {1: 1, 2: 4, 3: 29, 4: 355}  # OEIS A000798
    posets = {1: 1, 2: 3, 3: 19, 4: 219}  # OEIS A001035
    for n in range(1, 5):
        result = run_sweep(n)
        checks = result["checks"]
        bubbles = ordered_census(n, bell)
        assert result["preorder_count_filter"] == result["preorder_count_pairs"] == preorders[n]
        assert checks["incomparability-equivalence"]["instances"] == ordered_census(n, lambda k: 1)
        assert checks["decomposition-round-trip"]["instances"] == bubbles
        if n <= 2:
            assert "fallback-linear-factor" not in checks
        else:
            assert checks["fallback-linear-factor"]["instances"] == preorders[n] - bubbles
        assert checks["extension-contains-input"]["instances"] == posets[n]
        assert checks["linear-fixed-point"]["instances"] == factorial(n)
    assert [ordered_census(n, bell) for n in range(1, 5)] == [1, 4, 23, 175]
    assert [ordered_census(n, lambda k: 1) for n in range(1, 5)] == [1, 3, 13, 75]
