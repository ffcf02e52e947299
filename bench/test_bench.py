"""Self-tests for the benchmark.

    python3 -m pytest bench/test_bench.py      # or: python3 -m unittest discover -s bench

They show that the generators are deterministic and stdlib-only, that a
latency is scaled by the reference kernel runs beside it, that each
checker turns a deliberately corrupted output into a failed op, and that a
tiny setting of every workload runs clean, traced and untraced.
"""

from __future__ import annotations

import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from types import SimpleNamespace

import gen
import reference
import run
import workloads
from tracing import Tracer

ROOT = os.path.dirname(run.BENCH_DIR)

GENERATORS = (
    lambda r: gen.bubble_system(r, 20),
    lambda r: gen.bubble_system(r, 12, count=9),
    lambda r: gen.chain(r, 9),
    lambda r: gen.partial_order(r, 24),
    lambda r: gen.non_decomposable_preorder(r, 8),
    lambda r: gen.non_partial_order(r, 5),
    lambda r: gen.non_preorder(r, 6),
    lambda r: gen.random_relation(r, 7),
)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in GENERATORS:
            self.assertEqual(make(random.Random(5)), make(random.Random(5)))
            self.assertNotEqual(make(random.Random(5)), make(random.Random(6)))

    def test_generated_inputs_have_their_stated_shape(self):
        rnd = random.Random(3)
        for _ in range(20):
            po = gen.partial_order(rnd, 10)["rows"]
            self.assertTrue(gen.is_transitive(po))
            self.assertFalse(any(po[i] >> j & 1 and po[j] >> i & 1 for i in range(10) for j in range(i)))
            nd = gen.non_decomposable_preorder(rnd, 6)["rows"]
            self.assertTrue(gen.is_transitive(nd))
            self.assertFalse(gen.is_negatively_transitive(gen.strict_rows(nd)))
            b = gen.bubble_system(rnd, 11)
            self.assertTrue(gen.is_negatively_transitive(gen.strict_rows(b["rows"])))
            self.assertEqual(sorted(i for m in b["bubbles"] for i in m), list(range(11)))
            self.assertFalse(gen.is_transitive(gen.non_preorder(rnd, 5)["rows"]))

    def test_corpus_files_are_identical_for_a_seed(self):
        package, modules = run.load_program(ROOT)
        ob = SimpleNamespace(**modules)
        contents = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as workdir:
                workloads.corpus_small(ob, 9, workloads.CONFIG["corpus-small"], workdir)
                contents.append({f: open(os.path.join(workdir, f), "rb").read() for f in os.listdir(workdir)})
        self.assertEqual(contents[0], contents[1])
        copies = workloads.CONFIG["corpus-small"]["copies"]
        # the sweep reads no file
        self.assertEqual(len(contents[0]), len(workloads.TIERS) * copies * (len(workloads.CORPUS_MIX) - 1))

    def test_generators_and_checkers_import_nothing_from_ordbubble(self):
        for name in ("gen.py", "check.py", "reference.py"):
            with open(os.path.join(run.BENCH_DIR, name)) as fh:
                tree = ast.parse(fh.read())
            imported = [
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
            self.assertFalse([m for m in imported if "ordbubble" in m], name)
        probe = (
            "import random, sys; import gen, check; "
            "[f(random.Random(1)) for f in (lambda r: gen.bubble_system(r, 30), "
            "lambda r: gen.non_decomposable_preorder(r, 9), lambda r: gen.partial_order(r, 20))]; "
            "print(sorted(m for m in sys.modules if m.startswith('ordbubble')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=run.BENCH_DIR, capture_output=True, text=True, check=True
        )
        self.assertEqual(out.stdout.strip(), "[]")


class Reference(unittest.TestCase):
    def test_latency_is_divided_by_the_kernel_runs_within_the_window(self):
        speed = reference.Speed()
        speed.times = [0.0, 0.1, 0.2, 0.3 + reference.WINDOW]
        speed.seconds = [0.001, 0.002, 0.004, 0.5]
        # an op from 0.05 s to 0.15 s sees the first three kernel runs only
        self.assertAlmostEqual(speed.ref_ms(0.05, 0.1), 0.1 / 0.002)

    def test_kernel_runs_only_when_due(self):
        speed = reference.Speed()
        speed.sample(force=True)
        speed.sample()
        self.assertEqual(len(speed.times), 1)
        speed.sample(force=True)
        self.assertEqual(len(speed.times), 2)


# ---------------------------------------------------------------------------
# corrupted outputs must count as failed ops


def _bubbles_corruptions(out):
    system, composed, utility = out
    payload = system.to_json_dict()
    moved = json.loads(json.dumps(payload))
    moved["bubbles"][0]["elements"], moved["bubbles"][-1]["elements"] = (
        moved["bubbles"][-1]["elements"],
        moved["bubbles"][0]["elements"],
    )
    fake_system = SimpleNamespace(to_json_dict=lambda: moved)
    rows = list(composed.rows)
    rows[0] ^= 1 << (len(rows) - 1)
    values = dict(utility.values)
    values[next(iter(values))] = 2
    return [
        (fake_system, composed, utility),
        (system, SimpleNamespace(rows=tuple(rows)), utility),
        (system, composed, SimpleNamespace(values=values)),
    ]


def _extend_corruptions(out):
    order, values = out
    swapped = dict(values)
    swapped[order[0]], swapped[order[-1]] = values[order[-1]], values[order[0]]
    return [(tuple(reversed(order)), values), (order[1:], values), (order, swapped)]


def _report_corruptions(report: dict, verb: str) -> list[dict]:
    """One wrong-content variant of a successful command-line report."""
    bad = json.loads(json.dumps(report))
    result = bad["result"]
    if verb == "analyze":
        flags = result["properties"]["flags"]
        flags["reflexive"] = not flags["reflexive"]
    elif verb == "decompose" and result["mode"] == "bubbles":
        result["system"]["bubbles"][0]["elements"].append("intruder")
    elif verb == "decompose":
        result["partition"]["blocks"][0].reverse()
        result["refusal_witness"].reverse()
    elif verb == "bubble":
        result["relation"]["pairs"].pop()
    elif verb == "extend":
        result["order"].reverse()
    elif verb == "utility":
        result["values"][next(iter(result["values"]))] = "2"
    elif verb == "topology":
        result["opens"].pop()
    elif verb == "sweep":
        result["failures_total"] = 1
        miscounted = json.loads(json.dumps(report))
        miscounted["result"]["preorder_count_pairs"] += 1
        return [bad, miscounted]
    return [bad]


class Checkers(unittest.TestCase):
    def _ops(self, name):
        package, modules = run.load_program(ROOT)
        self.workdir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.workdir, True)
        return workloads.BUILDERS[name](SimpleNamespace(**modules), 4, workloads.SMOKE[name], self.workdir)

    def _assert_all_fail(self, ops):
        records = run.measure(ops, 0, None)
        self.assertTrue(records)
        passed = [r["op"].id for r in records if r["reason"] is None]
        self.assertEqual(passed, [], "corrupted outputs passed the check")

    def _corrupted(self, op, corrupt):
        outs = corrupt(op.run())
        return [
            workloads.Op(f"{op.id}~{k}", op.tier, op.size, op.verb, (lambda o=o: o), op.finish)
            for k, o in enumerate(outs)
        ]

    def test_in_process_workloads(self):
        for name, corrupt in (
            ("bubbles-large", _bubbles_corruptions),
            ("extend-large", _extend_corruptions),
        ):
            with self.subTest(workload=name):
                ops = self._ops(name)
                self._assert_all_fail([bad for op in ops for bad in self._corrupted(op, corrupt)])

    def test_corpus(self):
        ops = self._ops("corpus-small")
        bad_ops = []
        for op in ops:
            out = op.run()
            if op.verb is None:  # projection_check
                facts = dict(vars(out), dense_image=False)
                bad_ops.append(workloads.Op(op.id, op.tier, op.size, None, lambda f=facts: SimpleNamespace(**f), op.finish))
                continue
            out_path = op.argv[op.argv.index("--out") + 1]
            with open(out_path) as fh:
                report = json.load(fh)
            wrong_code = workloads.Op(op.id, op.tier, op.size, op.verb, lambda c=out: 1 - c, op.finish)
            bad_ops.append(wrong_code)
            if out == 0:
                for bad in _report_corruptions(report, op.verb):

                    def rewrite(bad=bad, path=out_path):
                        with open(path, "w") as fh:
                            json.dump(bad, fh)
                        return 0

                    bad_ops.append(workloads.Op(op.id, op.tier, op.size, op.verb, rewrite, op.finish))
        # 12 command-line ops per tier plus the small tier's sweep; 9 per
        # tier plus the sweep exit 0 and get wrong-content variants
        self.assertEqual(len([o for o in bad_ops if o.verb]), (3 * 12 + 1) + (3 * 9 + 2))
        self._assert_all_fail(bad_ops)

    def test_digest_drift_fails_the_op(self):
        ops = self._ops("extend-large")
        golden = {op.id: "0" * 16 for op in ops}
        records = run.measure(ops, 0, golden)
        self.assertTrue(all("drifted" in r["reason"] for r in records))


# ---------------------------------------------------------------------------
# smoke


class Smoke(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        e2e_names = [m["name"] for m in bench["end_to_end"]]
        layer_names = [m["name"] for m in bench["per_layer"]]
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.BUILDERS))
        for name in workloads.BUILDERS:
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as workdir:
                package, modules, ops = run.set_up(ROOT, name, 3, workloads.SMOKE[name], workdir)
                untraced = run.measure(ops, 0, None)
                metrics = run.end_to_end(untraced, [0.1])
                self.assertEqual(list(metrics), e2e_names)
                self.assertEqual(metrics["pass_rate"][0], 1.0)
                tracer = Tracer()
                tracer.install(package, modules)
                traced = run.measure(ops, 0, None, tracer)
                self.assertTrue(all(r["reason"] is None for r in traced))
                layers = run.per_layer(untraced, traced, tracer.table(), 0.0)
                self.assertEqual(list(layers), layer_names)
                self.assertGreater(layers["trace.overhead"][0], 0)


if __name__ == "__main__":
    unittest.main()
