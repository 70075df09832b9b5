"""Shared plumbing for the spark-submit table jobs.

Each ``jobs/tableN.py`` is a thin wrapper over
``repro.harness.tables.tableN``: it builds (or reuses) a SparkSession,
runs the harness, prints the measured-vs-paper markdown table, and
optionally writes it to a file. Importing this module puts ``src`` on
``sys.path``, so no ``PYTHONPATH`` is needed. Run as::

    python jobs/table3.py --n-docs 60 --out results/table3.md
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.tables import HarnessConfig, to_markdown  # noqa: E402
from repro.session import build_session  # noqa: E402


def parse_cfg(description: str) -> tuple[HarnessConfig, argparse.Namespace]:
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--n-docs", type=int, default=60, help="documents per setting")
    ap.add_argument("--model", default="davinci")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sites-per-domain", type=int, default=None,
                    help="limit SWDE sites per domain (default: all)")
    ap.add_argument("--out", default=None, help="write markdown table here")
    args = ap.parse_args()
    cfg = HarnessConfig(
        n_docs=args.n_docs, model=args.model, seed=args.seed,
        sites_per_domain=args.sites_per_domain,
    )
    return cfg, args


def run_table(table_fn, name: str, description: str) -> None:
    cfg, args = parse_cfg(description)
    spark = build_session(name)
    df = table_fn(spark, cfg)
    md = to_markdown(df)
    print(f"\n== {name} (measured vs *_paper reference) ==\n{md}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(md + "\n")
