"""Benchmark of the Evaporate pipelines: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload lake_4k --seed 0 --seconds 4 --trace 0

Set-up (timed as ``setup_s``) starts a Spark session, generates the
workload's lakes and runs one discarded warm-up pass on a small input.
Then a single caller runs passes of the workload in a closed loop until
``--seconds`` have elapsed (at least one pass). After the timed region
every pipeline call's output is checked, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``), or its
``per_layer`` metrics (``--trace 1``).

``--trace 1`` alternates untraced and traced passes; per-layer metrics
come from the traced ones, and ``trace.overhead_s`` is the median traced
pass minus the median untraced pass. Spans are written to
``.bench_build/perfbench/`` when the run ends.

Outputs are compared with ``perfbench/expected.json`` (written by
``perfbench/pin.py`` at the commit that added the benchmark) where the
seed is pinned; every seed also gets the invariant checks and, on
``paper_tables``, a check of every table cell against the plain-Python
reference metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
HERE = Path(__file__).resolve().parent
MAX_CORES = 4


def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to [2, 8] (as Tier-1 sets it)."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def build_session():
    """Spark session owned by the benchmark.

    Same SQL settings as ``jobs/_common.build_session``; ``src`` reaches
    the Python workers through their PYTHONPATH, so no PYTHONPATH is
    needed on the command line; scratch files stay under ``.bench_build``.
    """
    from pyspark.sql import SparkSession

    tmp = BUILD / "tmp"
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    spark = (
        SparkSession.builder.master(f"local[{cores}]").appName("perfbench")
        .config("spark.driver.memory", driver_memory())
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
        .config("spark.local.dir", str(tmp))
        .config("spark.executorEnv.PYTHONPATH", str(SRC))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM it started to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=120)


def tail_percentile(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = f"median {statistics.median(s):.4g} (n={n})"
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        out += f", p{p} {s[max(0, math.ceil(p / 100 * n) - 1)]:.4g}"
    else:
        out += ", no percentile has ten samples beyond it"
    return out


def median(values: list[float]) -> float:
    """Median, or 0 when every pass failed."""
    return statistics.median(values) if values else 0.0


def to_plain(v):
    return v.item() if hasattr(v, "item") else v


def frame_records(df) -> list[dict]:
    return [{k: to_plain(v) for k, v in r.items()} for r in df.to_dict("records")]


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(spans, pass_id: int) -> dict[str, float]:
    ss = [s for s in spans if s.pass_id == pass_id]
    child = defaultdict(float)
    for s in ss:
        if s.parent is not None:
            child[s.parent] += s.seconds
    by = defaultdict(list)
    for s in ss:
        by[s.name].append(s)
    m: dict[str, float] = {}
    for name, group in by.items():
        m[f"{name}.s"] = sum(s.seconds for s in group)
        m[f"{name}.self_s"] = sum(s.seconds - child[s.id] for s in group)
        m[f"{name}.calls"] = len(group)
        m[f"{name}.spark_jobs"] = sum(s.spark_jobs for s in group)
        for s in group:
            for k, v in s.counts.items():
                m[f"{name}.{k}"] = m.get(f"{name}.{k}", 0) + v
    g = defaultdict(float, m)
    fn_docs = g["execute.fn_docs"]
    keys = {s.key for s in by["prepare"]}
    return {
        **m,
        "execute.us_per_fn_doc": 1e6 * g["execute.s"] / fn_docs if fn_docs else 0.0,
        "prepare.useful_ratio": len(keys) / len(by["prepare"]) if by["prepare"] else 0.0,
        "plan.kept_ratio": g["plan.kept"] / g["plan.candidates"] if g["plan.candidates"] else 0.0,
        "plan.alive_attrs": g["plan.alive"],
        "validation.tokens": g["finish.validation_tokens"],
        "direct.spark_jobs": g["direct.run_direct.spark_jobs"] + g["direct.run_closed_direct.spark_jobs"],
        "spark.jobs": sum(s.spark_jobs for s in ss),
    }


# -- checks -------------------------------------------------------------------

def compare(kind: str, got, want) -> list[str]:
    return [] if got == want else [f"{kind}: {got!r} != pinned {want!r}"]


def check_pass(op_sums, frames, pinned, first) -> tuple[int, list[str]]:
    """Count failed operations of one pass; return them with reasons."""
    failed, notes = 0, []
    reference = pinned or first
    for i, o in enumerate(op_sums):
        probs = list(o["problems"])
        body = {k: v for k, v in o.items() if k != "problems"}
        if reference is not None:
            ref = reference["ops"][i] if i < len(reference["ops"]) else None
            probs += compare(f"op {i}", body, ref)
        if probs:
            failed += 1
            notes += [f"{o['name']}#{i}: {p}" for p in probs]
    if reference is not None and len(reference["ops"]) != len(op_sums):
        failed += 1
        notes.append(f"{len(op_sums)} pipeline calls, expected {len(reference['ops'])}")
    for t in frames:  # harness outputs count as operations of their own
        probs = list(frames[t]["problems"])
        if reference is not None:
            probs += compare(t, frames[t]["records"], reference["frames"][t])
        if probs:
            failed += 1
            notes += [f"{t}: {p}" for p in probs]
    return failed, notes


def prepare_env() -> bool:
    """Check for the sources; keep temporary files under ``.bench_build``."""
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return False
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


# -- main -----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not prepare_env():
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from spans import Recorder
    from workloads import WORKLOADS, summarize_op

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    t0 = time.perf_counter()
    spark = build_session()
    try:
        rec = Recorder(spark.sparkContext)
        rec.pass_id = -1
        t1 = time.perf_counter()
        with rec.instrument(trace):
            wl.setup(args.seed)
        rec.pass_id = None
        t2 = time.perf_counter()
        with rec.instrument(False):
            wl.warmup(spark, args.seed)
        t3 = time.perf_counter()
        setup_s = t3 - t0
        print(f"set-up: spark {t1 - t0:.2f} s, lakes {t2 - t1:.2f} s, warm-up {t3 - t2:.2f} s")
        rec.ops.clear()

        pinned = json.loads((HERE / "expected.json").read_text()).get(
            wl.name, {}).get(str(args.seed))
        passes = []  # (traced, seconds, pipeline calls, harness outputs or None)
        deadline = time.perf_counter() + args.seconds
        i = 0
        while not passes or time.perf_counter() < deadline or (
                trace and len({p[0] for p in passes}) < 2):
            traced = trace and i % 2 == 1
            rec.pass_id = i
            with rec.instrument(traced):
                t = time.perf_counter()
                try:
                    with rec.span("pass") if traced else contextlib.nullcontext():
                        out = wl.run(spark, args.seed)
                except Exception:
                    traceback.print_exc()
                    out = None
                dt = time.perf_counter() - t
            passes.append((traced, dt, rec.ops[:], out))
            rec.ops.clear()
            i += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        stop_session(spark)
    return report(args, spec, wl, summarize_op, rec, passes, pinned, setup_s, rss_mb)


def report(args, spec, wl, summarize_op, rec, passes, pinned, setup_s, rss_mb) -> int:
    attempted = failed = 0
    notes: list[str] = []
    first = None
    per_pass = []
    for traced, dt, ops, out in passes:
        sums = [summarize_op(o) for o in ops]
        frames = {}
        if out is None and not any("error" in o for o in sums):
            failed += 1
            attempted += 1
            notes.append("pass raised outside the pipeline calls")
        elif out is not None:
            for t, df in out.items():
                frames[t] = {"records": frame_records(df), "problems": []}
            probs = wl.cross_check(sums, out)
            for t in frames:
                frames[t]["problems"] = [p for p in probs if p.startswith(t)]
        n_fail, why = check_pass(sums, frames, pinned, first)
        attempted += len(sums) + len(frames)
        failed += n_fail
        notes += why
        if out is None:
            continue
        summary = {"ops": [{k: v for k, v in o.items() if k != "problems"} for o in sums],
                   "frames": {t: f["records"] for t, f in frames.items()}}
        first = first or summary
        pair, closed = wl.quality(sums, out)
        per_pass.append({
            "traced": traced, "seconds": dt,
            "docs_per_s": sum(o.get("docs", 0) for o in sums) / dt,
            "llm_tokens": sum(o.get("llm_tokens", 0) for o in sums),
            "pair_f1": pair, "closed_f1": closed,
        })
    for n in notes:
        print(f"perfbench: check failed: {n}", file=sys.stderr)

    untraced = [p for p in per_pass if not p["traced"]]
    traced = [p for p in per_pass if p["traced"]]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  pinned seed: {'yes' if pinned else 'no'}")
    print(f"  pass wall-clock (s): {tail_percentile([p['seconds'] for p in untraced] or [math.nan])}; "
          f"each: {' '.join(f'{p[1]:.2f}' for p in passes)}")
    print(f"  fail_rate {failed / max(1, attempted):.4g} ({failed} of {attempted} operations)")
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "docs_per_s": median([p["docs_per_s"] for p in untraced]),
            "llm_tokens": median([p["llm_tokens"] for p in untraced]),
            "pair_f1": untraced[0]["pair_f1"] if untraced else 0.0,
            "closed_f1": untraced[0]["closed_f1"] if untraced else 0.0,
            "driver_peak_rss_mb": rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        layer = [layer_metrics(rec.spans, i) for i, p in enumerate(passes) if p[0]]
        names = {m["name"] for m in spec["per_layer"]}
        values = {n: median([d.get(n, 0.0) for d in layer]) for n in names}
        setup_spans = [s for s in rec.spans if s.pass_id == -1 and s.name == "lakes.make_lake"]
        values["lakes.make_lake.s"] = sum(s.seconds for s in setup_spans)
        tr = median([p["seconds"] for p in traced])
        un = median([p["seconds"] for p in untraced])
        values.update({"trace.traced_pass_s": tr, "trace.untraced_pass_s": un,
                       "trace.overhead_s": tr - un})
        wanted = spec["per_layer"]
        write_spans(args, rec)
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": to_plain(v), "unit": m["unit"]}
        print(f"  {m['name']:<34} {v:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_spans(args, rec) -> None:
    path = BUILD / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps([{
        "id": s.id, "name": s.name, "parent": s.parent, "op": s.op, "pass": s.pass_id,
        "start": s.start, "end": s.end, "spark_jobs": s.spark_jobs, "counts": s.counts,
    } for s in rec.spans]))


if __name__ == "__main__":
    sys.exit(main())
