"""Outside-in tracing of ``ordbubble``, from the benchmark's files only.

``Tracer.install`` rebinds, in every package module namespace that binds
it, each function one module imports from another, each public function
of a module, the witness scans ``check_properties`` dispatches to, and the
command-line verb handlers.  It also spans
``EquivalenceRelation.__post_init__`` and
``RationalEnumeration.first_index_inside`` and counts ``Relation.has``
calls without timing them (that call is too hot to time).  Nothing under
``src/`` changes.

Spans stay in memory as parallel arrays (name, parent, start, end) and are
written once, when the run ends.  Self time is a span's duration minus the
durations of its children; the run is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import json
import time
from array import array
from functools import update_wrapper
from inspect import isgeneratorfunction
from types import FunctionType

LAYERS = ("relations", "factor", "structure", "order_ext", "topology", "sweep", "cli")

# Private functions spanned although no other module imports them.
_PRIVATE = {
    "relations": (
        "_reflexive_witness",
        "_irreflexive_witness",
        "_symmetric_witness",
        "_antisymmetric_witness",
        "_asymmetric_witness",
        "_complete_witness",
        "_transitive_witness",
        "_neg_transitive_witness",
    ),
    "cli": ("_run_analyze", "_run_decompose", "_run_bubble", "_run_extend", "_run_utility", "_run_topology"),
}

# Span names that differ from "<module>.<function>".
_RENAME = {
    f"relations._{flag}_witness": f"relations.witness.{flag}"
    for flag in ("reflexive", "irreflexive", "symmetric", "antisymmetric", "asymmetric", "complete", "transitive")
}

# Predicate, witness and saturation checks: the "verify" share of relations.
VERIFY = frozenset(
    {
        "relations.check_properties",
        "relations.check_saturation",
        "relations.preorder_witness",
        "relations.is_preorder",
        "relations._neg_transitive_witness",
        *_RENAME.values(),
        *(
            f"relations.rows_{p}"
            for p in (
                "reflexive",
                "irreflexive",
                "symmetric",
                "antisymmetric",
                "asymmetric",
                "complete",
                "transitive",
                "negatively_transitive",
            )
        ),
    }
)

ROOT = "op:"  # root span of one benchmark operation: "op:<op id>"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.has_calls = [0]
        self.opens_enumerated = [0]

    def _id(self, span: str) -> int:
        if span not in self.name_ids:
            self.name_ids[span] = len(self.names)
            self.names.append(span)
        return self.name_ids[span]

    def span(self, fn, span: str, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result)`` runs on
        the result, outside the timed interval's bookkeeping."""
        nid = self._id(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    def op(self, op_id: str, fn):
        """Run one benchmark operation under a root span named after the op,
        so every span of the operation shares its root as identifier."""
        return self.span(fn, ROOT + op_id)()

    def install(self, package, modules: dict) -> None:
        bound: dict[int, list] = {}
        originals: dict[int, FunctionType] = {}
        for mod in [package, *modules.values()]:
            for attr, obj in vars(mod).items():
                if isinstance(obj, FunctionType) and obj.__module__.startswith("ordbubble."):
                    originals[id(obj)] = obj
                    bound.setdefault(id(obj), []).append((mod, attr))
        for key, fn in originals.items():
            home = fn.__module__.split(".", 1)[1]
            if home not in modules or isgeneratorfunction(fn):
                continue
            imported = any(
                m is not modules[home] and m is not package for m, _ in bound[key]
            )
            if not (imported or not fn.__name__.startswith("_") or fn.__name__ in _PRIVATE.get(home, ())):
                continue
            span = f"{home}.{fn.__name__}"
            after = self._count_opens if span == "topology.generate_topology" else None
            wrapper = self.span(fn, _RENAME.get(span, span), after)
            for mod, attr in bound[key]:
                setattr(mod, attr, wrapper)

        eq = modules["factor"].EquivalenceRelation
        eq.__post_init__ = self.span(eq.__post_init__, "factor.EquivalenceRelation")
        enum = modules["order_ext"].RationalEnumeration
        enum.first_index_inside = self.span(enum.first_index_inside, "order_ext.first_index_inside")
        rel = modules["relations"].Relation
        rel.has = self._counted(rel.has)

    def _count_opens(self, topology) -> None:
        self.opens_enumerated[0] += len(topology.opens)

    def _counted(self, fn):
        calls = self.has_calls

        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        update_wrapper(wrapper, fn)
        return wrapper

    # -----------------------------------------------------------------------

    def table(self) -> dict:
        """Per span name: calls, total self seconds, and self seconds of
        verify calls entered from another layer."""
        n = len(self.name)
        names, name, parent, start, end = self.names, self.name, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        verify_from_outside = 0.0
        for i in range(n):
            nid = name[i]
            own = end[i] - start[i] - child[i]
            calls[nid] += 1
            self_s[nid] += own
            if names[nid] in VERIFY:
                p = parent[i]
                while p >= 0 and names[name[p]] in VERIFY:
                    p = parent[p]
                entry = names[name[p]] if p >= 0 else ROOT
                if not entry.startswith((ROOT, "relations.")):
                    verify_from_outside += own
        return {
            "spans": {names[k]: {"calls": calls[k], "self_s": self_s[k]} for k in range(len(names))},
            "verify_from_outside_s": verify_from_outside,
            "has_calls": self.has_calls[0],
            "opens_enumerated": self.opens_enumerated[0],
        }

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays
        (int32, int32, float64, float64, native byte order)."""
        header = {"names": self.names, "count": len(self.name), "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
