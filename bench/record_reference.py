"""Record the gate's reference values from the code in ``src``.

    python3 bench/record_reference.py

Run once on a commit whose outputs are trusted; the result is committed as
``bench/reference.json``.  Synthetic labels depend on the seed, so
``noncyclic-report`` is recorded for each seed in NONCYCLIC_SEEDS (other
seeds are still checked by the gate's invariants and numpy oracle).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
NONCYCLIC_SEEDS = range(0, 12)


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from run import git_commit, import_library

    root = Path.cwd()
    import_library(root)
    from gate import comparable
    from tracing import NullTracer
    from workloads import WORKLOADS

    tracer = NullTracer()
    reference = {"recorded_from": git_commit(root)}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        out = Path(tmp)
        for size in ("smoke", "full"):
            per_size = reference[size] = {}
            for wl in WORKLOADS.values():
                p = wl.sizes[size]
                if wl.name == "noncyclic-report":
                    per_size[wl.name] = {"seeds": {
                        str(seed): comparable(wl.pipeline(p, seed, tracer, out).facts)
                        for seed in NONCYCLIC_SEEDS
                    }}
                else:
                    per_size[wl.name] = comparable(wl.pipeline(p, 0, tracer, out).facts)
                print(f"recorded {size} {wl.name}", flush=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
