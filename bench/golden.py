"""Write ``golden.json``: the digest of every op's output at the default seed.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 bench/golden.py

Each op runs once and must pass its own check first.  A run at the default
seed then fails any op whose output digest differs, so outputs that must
stay bit-identical (CLI report bytes, witnesses, block labels, Calkin-Wilf
values, sweep tallies) cannot drift unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    golden = {}
    for name in sorted(workloads.BUILDERS):
        workdir = os.path.join(root, run.WORK_DIR, f"golden-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            _, _, ops = run.set_up(root, name, run.DEFAULT_SEED, workloads.CONFIG[name], workdir)
            golden[name] = {}
            for op in ops:
                reason, dig = op.finish(op.run())
                if reason is not None:
                    print(f"{name} {op.id}: {reason}", file=sys.stderr)
                    return 1
                golden[name][op.id] = dig
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(golden[name])} digests")
    with open(os.path.join(run.BENCH_DIR, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
