"""One-shot full-scale regeneration of all tables -> results/*.md.

Run from the repo root: ``python jobs/run_all.py``.
"""
import time

import _common  # noqa: F401  (puts src on sys.path)
from repro.harness import tables
from repro.session import build_session

spark = build_session("run-all")
cfg = tables.HarnessConfig(n_docs=60)

for name in ["table1", "table2", "table3", "table4", "table5", "table6", "table7"]:
    t0 = time.time()
    df = getattr(tables, name)(spark, cfg)
    md = tables.to_markdown(df)
    with open(f"results/{name}.md", "w") as f:
        f.write(md + "\n")
    print(f"=== {name} ({time.time()-t0:.0f}s) ===")
    print(md, flush=True)
spark.stop()
print("DONE")
