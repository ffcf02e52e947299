"""Compare benchmark results of two commits.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are directories holding the ``BENCH_*.json`` records that
``run.py`` writes (searched recursively, e.g. the ``.bench_results`` of a
checkout of each commit).  Untraced records only.  Prints one row per
workload and end-to-end metric of ``BENCHMARK.json``: each side's median
and quartiles, how many runs of AFTER beat their paired run of BEFORE, and
a verdict.

Runs are paired by seed, in the order they started.  The verdict follows
the benchmark's bounds:

* improved   -- AFTER wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than BEFORE's interquartile range;
* unresolved -- either side's interquartile range, as a share of its
  median, is wider than the bound, unless every AFTER run beats every
  BEFORE run;
* worse      -- AFTER's median is worse than BEFORE's by more than the
  bound (a share of BEFORE's median);
* no worse   -- otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced records per workload, in the order the runs started."""
    out: dict[str, list[dict]] = {}
    for path in glob.glob(os.path.join(directory, "**", "BENCH_*.json"), recursive=True):
        with open(path) as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            out.setdefault(record["workload"], []).append(record)
    for records in out.values():
        records.sort(key=lambda r: r["started_unix"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(before: list[dict], after: list[dict]) -> list[tuple[dict, dict]]:
    """The k-th run of a seed on one side with the k-th run of that seed on
    the other."""
    by_seed: dict[int, list[dict]] = {}
    for r in before:
        by_seed.setdefault(r["seed"], []).append(r)
    taken: dict[int, int] = {}
    out = []
    for r in after:
        k = taken.get(r["seed"], 0)
        if k < len(by_seed.get(r["seed"], [])):
            out.append((by_seed[r["seed"]][k], r))
            taken[r["seed"]] = k + 1
    return out


def verdict(a: list[float], b: list[float], won: int, paired: int, bound: float, lower: bool) -> str:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if lower else -1
    gain = sign * (qa[1] - qb[1])  # > 0 when AFTER's median is better
    if paired and won >= 0.9 * paired and gain > qa[2] - qa[0]:
        return "improved"
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(qa[1]):
        return "worse"
    return "no worse"


def compare(before: dict, after: dict, metrics: list[dict]) -> list[list[str]]:
    rows = []
    for workload in sorted(set(before) & set(after)):
        matched = pairs(before[workload], after[workload])
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in before[workload]]
            b = [r["metrics"][name]["value"] for r in after[workload]]
            won = sum(
                (x["metrics"][name]["value"] > y["metrics"][name]["value"]) == lower
                and x["metrics"][name]["value"] != y["metrics"][name]["value"]
                for x, y in matched
            )
            qa, qb = quartiles(a), quartiles(b)
            rows.append(
                [
                    workload,
                    name,
                    m["unit"],
                    f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(a)}",
                    f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b)}",
                    f"{won}/{len(matched)}",
                    verdict(a, b, won, len(matched), m["bound"], lower),
                ]
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    before, after = load(args.before), load(args.after)
    for label, side in (("before", before), ("after", after)):
        machines = {
            (r["machine"]["git_sha"], r["machine"]["src_sha256"], r["machine"]["nproc"], r["machine"]["python"])
            for records in side.values()
            for r in records
        }
        for sha, src, nproc, python in sorted(machines, key=str):
            print(f"{label}: git={sha} src={src} nproc={nproc} python={python}")
    rows = compare(before, after, metrics)
    if not rows:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 1
    header = ["workload", "metric", "unit", "before median [q1, q3]", "after median [q1, q3]", "after won", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
