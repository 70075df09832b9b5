"""Pin the expected outputs of every workload into ``expected.json``.

Run from the repository root, at the commit whose outputs are the
reference (the benchmark then counts any difference as a failure)::

    python3 perfbench/pin.py --seeds 0 1 2

For each workload and seed this runs set-up and one pass, summarizes
every pipeline call's output as ``run.py`` does, and stores the summaries
and harness tables. Seeds already pinned are kept unless repinned.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    if not run.prepare_env():
        return 2
    from spans import Recorder
    from workloads import WORKLOADS, summarize_op

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    spark = run.build_session()
    try:
        rec = Recorder(spark.sparkContext)
        for name, wl in WORKLOADS.items():
            for seed in args.seeds:
                wl.setup(seed)
                with rec.instrument(False):
                    out = wl.run(spark, seed)
                sums = [summarize_op(o) for o in rec.ops]
                rec.ops.clear()
                problems = [p for o in sums for p in o["problems"]]
                problems += wl.cross_check(sums, out)
                if problems:
                    print(f"{name} seed {seed}: not pinned: {problems}", file=sys.stderr)
                    return 1
                entry = {
                    "ops": [{k: v for k, v in o.items() if k != "problems"} for o in sums],
                    "frames": {t: run.frame_records(df) for t, df in out.items()},
                }
                expected.setdefault(name, {})[str(seed)] = entry
                print(f"pinned {name} seed {seed}", flush=True)
                path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    finally:
        run.stop_session(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
