"""Benchmark for ordbubble: seeded workloads, closed loop, one process.

Run from the root of a checkout:

    python3 bench/run.py --workload bubbles-large --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the current directory.  One
caller makes one call at a time (no threads; subprocesses only for the
traced corpus run's cold-start probe).  The run sets up (import, input
generation), warms up (each small-tier op once, untimed), then runs the
workload's fixed pass of operations once and goes on running its ops in
order, round and round, until ``--seconds`` have passed.  An untraced run
also times a full set-up between ops at even intervals, so its ``setup_s``
is the median of ``SETUP_REPEATS`` set-ups spread over the run, as the op
timings are.  Op latencies are gated in reference milliseconds, which a
slow stretch of the host does not move (see ``reference.py``); the same
timings in plain ms are printed after them and kept in the record.  Every
output is checked by the benchmark's own code (``check.py``) and, at the
default seed, against the golden digests in ``golden.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
for a third of the time, then traced (see ``tracing.py``) for the rest, and
prints the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object.  A full record of the run, including
the machine, goes to ``.bench_results/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import workloads
from reference import Speed
from tracing import LAYERS, Tracer

DEFAULT_SEED = 1
SETUP_REPEATS = 20
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = ".bench_results"
WORK_DIR = ".bench_work"

VERBS = ("analyze", "decompose", "bubble", "extend", "utility", "topology", "sweep")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program sources)."""


# ---------------------------------------------------------------------------
# set-up

def _program_modules() -> list[str]:
    return [m for m in sys.modules if m == "ordbubble" or m.startswith("ordbubble.")]


def load_program(root: str):
    """Import ``ordbubble`` afresh from ``<root>/src`` and return
    (package, namespace of its layer modules)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ordbubble", "__init__.py")):
        raise SetupError(f"no program sources under {src}")
    for name in _program_modules():
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("ordbubble")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "ordbubble"):
        raise SetupError(f"ordbubble imported from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"ordbubble.{name}") for name in LAYERS}
    return package, modules


def set_up(root: str, workload: str, seed: int, config: dict, workdir: str):
    """Import the program afresh and generate the inputs."""
    package, modules = load_program(root)
    ops = workloads.BUILDERS[workload](SimpleNamespace(**modules), seed, config, workdir)
    return package, modules, ops


def set_up_again(root: str, workload: str, seed: int, config: dict, workdir: str) -> float:
    """Time one more full set-up, then put back the program being measured,
    so imports made inside its functions still reach the warmed-up modules.
    The new inputs are the same as the old (same seed) and are dropped, and
    collected at once so that no op's latency includes freeing them."""
    kept = {name: sys.modules[name] for name in _program_modules()}
    t0 = time.perf_counter()
    set_up(root, workload, seed, config, workdir)
    elapsed = time.perf_counter() - t0
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return elapsed


def warm_up(ops) -> None:
    """Run each small-tier op and its check once, untimed."""
    for op in ops:
        if op.tier == "small":
            try:
                op.finish(op.run())
            except Exception:  # counted when the op is measured
                pass


# ---------------------------------------------------------------------------
# measurement

def measure(ops, seconds: float, golden: dict | None, tracer: Tracer | None = None, set_up_again=None):
    """Run the whole pass once, then keep running its ops in order, from
    the start again after the last, until ``seconds`` have passed; one
    record per op run, with its latency in ms and in ref_ms (see
    ``reference.py``).  Stopping after any op, not only at the end of a
    pass, keeps a run close to ``seconds`` however long the pass is.
    ``set_up_again()``, when given, runs between ops every
    ``seconds / SETUP_REPEATS``."""
    records = []
    speed = Speed()
    speed.sample(force=True)
    began = time.perf_counter()
    next_set_up = began + seconds / SETUP_REPEATS
    while len(records) < len(ops) or time.perf_counter() - began < seconds:
        if set_up_again is not None and time.perf_counter() >= next_set_up:
            set_up_again()
            next_set_up = time.perf_counter() + seconds / SETUP_REPEATS
        speed.sample()
        op = ops[len(records) % len(ops)]
        reason, dig = None, None
        t0 = time.perf_counter()
        try:
            out = tracer.op(op.id, op.run) if tracer else op.run()
        except Exception as exc:  # an op that raises counts as failed
            reason = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if reason is None:
            try:
                reason, dig = op.finish(out)
            except Exception as exc:
                reason = f"checker raised {type(exc).__name__}: {exc}"
        if reason is None and golden is not None and golden.get(op.id) != dig:
            reason = f"output digest {dig} drifted from golden {golden.get(op.id)}"
        records.append({"op": op, "start": t0, "s": latency, "reason": reason})
    speed.sample(force=True)
    for r in records:
        r["ms"] = 1000 * r["s"]
        r["ref_ms"] = speed.ref_ms(r.pop("start"), r.pop("s"))
    return records


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pass_ms(records, key: str) -> float:
    """Time for one pass: the sum, over the ops of the pass, of each op's
    median latency (``key``: "ms" or "ref_ms").  It uses every op run, the
    last unfinished pass's too."""
    by_op: dict[str, list[float]] = {}
    for r in records:
        by_op.setdefault(r["op"].id, []).append(r[key])
    return sum(statistics.median(v) for v in by_op.values())


def timings(records, key: str) -> dict:
    """Pass time, op p50/p95, ops per second and per-tier p50 of the
    records' latencies in ``key``: "ms" gives ``wall_s``, ``op_p50_ms``
    and so on; "ref_ms" gives ``wall_ref_s``, ``op_p50_ref_ms`` and so on,
    in reference units."""
    tag = "" if key == "ms" else "ref_"
    lat = [r[key] for r in records]
    metrics = {
        f"wall_{tag}s": (pass_ms(records, key) / 1000, f"{tag}s"),
        f"op_p50_{tag}ms": (statistics.median(lat), key),
        f"op_p95_{tag}ms": (percentile(lat, 0.95), key),
        f"ops_per_{tag}s": (1000 * len(lat) / sum(lat), f"ops/{tag}s"),
    }
    for tier in workloads.TIERS:
        metrics[f"p50_{tag}ms.{tier}"] = (statistics.median(r[key] for r in records if r["op"].tier == tier), key)
    return metrics


def end_to_end(records, setup_times) -> dict:
    """The metrics of BENCHMARK.json's ``end_to_end``: set-up in seconds,
    timings in reference units."""
    failed = sum(r["reason"] is not None for r in records)
    timed = timings(records, "ref_ms")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref_s": timed.pop("wall_ref_s"),
        "pass_rate": ((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    metrics.update(timed)
    return metrics


# Per-layer metrics: (name, unit); every one is printed for every workload.
PER_LAYER = (
    [
        ("relations._neg_transitive_witness.calls", "count"),
        ("relations._neg_transitive_witness.self_s", "s"),
    ]
    + [
        (f"relations.witness.{flag}.self_s", "s")
        for flag in ("reflexive", "irreflexive", "symmetric", "antisymmetric", "asymmetric", "complete", "transitive")
    ]
    + [
        ("relations.check_properties.calls", "count"),
        ("relations.check_properties.self_s", "s"),
        ("relations.check_saturation.self_s", "s"),
        ("relations.derived_parts.calls", "count"),
        ("relations.Relation.has.calls", "count"),
        ("relations.transitive_closure.self_s", "s"),
        ("relations.verify_share", "ratio"),
        ("factor.EquivalenceRelation.calls", "count"),
        ("factor.EquivalenceRelation.self_s", "s"),
        ("factor.weak_factor_relation.self_s", "s"),
        ("factor.factor_relation.self_s", "s"),
        ("structure.bubble_decompose.self_s", "s"),
        ("structure.bubble_compose.self_s", "s"),
        ("structure.coproduct_preorder.self_s", "s"),
        ("structure.bourbaki_factor.self_s", "s"),
        ("order_ext.szpilrajn_step.calls", "count"),
        ("order_ext.szpilrajn_step.self_s", "s"),
        ("order_ext.szpilrajn_extend.self_s", "s"),
        ("order_ext.cantor_embed.self_s", "s"),
        ("order_ext.generalized_utility.self_s", "s"),
        ("order_ext.first_index_inside.calls", "count"),
        ("topology.generate_topology.self_s", "s"),
        ("topology.opens_enumerated", "count"),
        ("topology.connectivity_report.self_s", "s"),
        ("topology.projection_check.self_s", "s"),
        ("topology.continuity_check.self_s", "s"),
        ("sweep.exhaustive_logic_sweep.self_s", "s"),
        ("sweep.count_split_pairs.self_s", "s"),
        ("sweep.decomposition_sweep.self_s", "s"),
        ("sweep.extension_sweep.self_s", "s"),
        ("sweep.system_roundtrip_sweep.self_s", "s"),
        ("sweep.relation_battery.calls", "count"),
        ("sweep.pair_battery.calls", "count"),
        ("cli.self_s", "s"),
        ("cli.parse_input.self_s", "s"),
    ]
    + [(f"cli.{verb}.p50_ms", "ms") for verb in VERBS]
    + [("cli.process.p50_ms", "ms")]
    + [(f"layer.{m}.{kind}", unit) for m in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [("trace.overhead", "ratio")]
)


def per_layer(untraced, traced, table: dict, process_ms: float) -> dict:
    """Per-layer metrics, each an average per traced pass (the last pass
    counted by the share of its ops that ran)."""
    count = len(traced) / len({r["op"].id for r in traced})
    spans = table["spans"]
    traced_wall = sum(r["ms"] for r in traced) / 1000
    values = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s") and base in spans:
            values[name] = spans[base][kind] / count
        else:
            values[name] = 0.0 if unit != "count" else 0
    for m in LAYERS:
        mine = [v for k, v in spans.items() if k.startswith(m + ".")]
        values[f"layer.{m}.self_s"] = sum(v["self_s"] for v in mine) / count
        values[f"layer.{m}.calls"] = sum(v["calls"] for v in mine) / count
    values["cli.self_s"] = values["layer.cli.self_s"]
    values["relations.Relation.has.calls"] = table["has_calls"] / count
    values["topology.opens_enumerated"] = table["opens_enumerated"] / count
    values["relations.verify_share"] = table["verify_from_outside_s"] / traced_wall
    for verb in VERBS:
        lat = [r["ms"] for r in untraced if r["op"].verb == verb]
        values[f"cli.{verb}.p50_ms"] = statistics.median(lat) if lat else 0.0
    values["cli.process.p50_ms"] = process_ms
    values["trace.overhead"] = pass_ms(traced, "ref_ms") / pass_ms(untraced, "ref_ms")
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def cold_process(root: str, ops, repeats: int = 3) -> dict:
    """Record (as one op) of cold ``python -m ordbubble`` processes running
    the first small analyze call of the pass: median wall time, or why a
    process failed."""
    op = next(op for op in ops if op.verb == "analyze" and op.tier == "small")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ordbubble", *op.argv], cwd=root, env=env)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return {"op": op, "ms": 0.0, "reason": f"cold process exited {proc.returncode}"}
    return {"op": op, "ms": 1000 * statistics.median(times), "reason": None}


# ---------------------------------------------------------------------------
# records

def machine(root: str) -> dict:
    """nproc, Python version, git SHA (when the checkout has .git) and a
    digest of the program sources (always)."""
    src = os.path.join(root, "src", "ordbubble")
    hasher = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                hasher.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "src_sha256": hasher.hexdigest()[:16],
        "platform": platform.platform(),
    }


def _git_sha(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tier_sizes(ops) -> dict:
    sizes = {}
    for op in ops:
        sizes.setdefault(op.tier, [])
        if op.size not in sizes[op.tier]:
            sizes[op.tier].append(op.size)
    return sizes


def curve(records, key: str) -> dict:
    """Median latency (``key``: "ms" or "ref_ms") per carrier size, in
    order of size."""
    by_size: dict[str, list[float]] = {}
    for r in records:
        by_size.setdefault(r["op"].size, []).append(r[key])
    ordered = sorted(by_size, key=lambda s: int(s[1:]))
    return {s: statistics.median(by_size[s]) for s in ordered}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.time()
    root = os.getcwd()
    config = workloads.CONFIG[args.workload]
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    golden = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(BENCH_DIR, "golden.json")) as fh:
            golden = json.load(fh)[args.workload]
    probe = []  # the traced corpus run's cold-process probe, counted as one op
    try:
        os.makedirs(workdir, exist_ok=True)
        t0 = time.perf_counter()
        package, modules, ops = set_up(root, args.workload, args.seed, config, workdir)
        setup_times = [time.perf_counter() - t0]
        warm_up(ops)

        if args.trace:
            untraced = measure(ops, args.seconds / 3, golden)
            tracer = Tracer()
            tracer.install(package, modules)
            traced = measure(ops, args.seconds - args.seconds / 3, golden, tracer)
            table = tracer.table()
            if args.workload == "corpus-small":
                probe = [cold_process(root, ops)]
            process_ms = probe[0]["ms"] if probe else 0.0
            metrics = per_layer(untraced, traced, table, process_ms)
            segments = [untraced, traced]
        else:
            def again():
                setup_times.append(set_up_again(root, args.workload, args.seed, config, workdir))

            untraced = measure(ops, args.seconds, golden, set_up_again=again)
            segments = [untraced]
            metrics = end_to_end(untraced, setup_times)
    except (SetupError, ImportError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    records = [r for seg in segments for r in seg] + probe
    # the latency sum of each whole pass, in the order they ran
    pass_wall = [
        sum(r["ms"] for r in seg[i : i + len(ops)]) / 1000
        for seg in segments
        for i in range(0, len(seg) - len(ops) + 1, len(ops))
    ]
    passes = sum(len(seg) for seg in segments) / len(ops)
    failures = [r for r in records if r["reason"] is not None]
    info = machine(root)
    raw = timings(untraced, "ms")
    curves = {key: curve(untraced, key) for key in ("ms", "ref_ms")}
    kernel_ms = statistics.median(r["ms"] / r["ref_ms"] for r in untraced)
    print(f"machine: nproc={info['nproc']} python={info['python']} git={info['git_sha']} src={info['src_sha256']}")
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} -- {workloads.WHY[args.workload]}")
    for key, sizes in curves.items():
        print(f"curve {args.workload} p50 {key}: " + " ".join(f"{s}={v:.3f}" for s, v in sizes.items()))
    print(
        f"samples: ops={len(records)} passes={passes:.2f} per-pass={len(ops)} "
        f"failed={len(failures)} setup_runs={len(setup_times)}"
    )
    for r in failures[:5]:
        print(f"FAILED {r['op'].id}: {r['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {_fmt(value):>14s} {unit}")
    print(f"raw timings (not gated; 1 ref_ms was {kernel_ms:.4f} ms in this run, median):")
    for name, (value, unit) in raw.items():
        print(f"  {name:44s} {_fmt(value):>14s} {unit}")

    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "machine": info,
        "tiers": tier_sizes(ops),
        "curve_p50_ms": curves["ms"],
        "curve_p50_ref_ms": curves["ref_ms"],
        "ref_ms_in_ms": kernel_ms,
        "raw_timings": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "attempted": len(records),
        "failed": len(failures),
        "passes": passes,
        "pass_wall_s": pass_wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(root, RESULTS_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    stamp = f"seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(os.path.join(out_dir, f"BENCH_{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(os.path.join(out_dir, "spans-latest.bin"))
        with open(os.path.join(out_dir, f"TRACE_{stamp}.json"), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
