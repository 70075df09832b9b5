"""Reproduce the Figure 3 cost-crossover analysis (§3.2.2, §4.4.1).

Prints the analytic token-cost curves for Direct vs Code synthesis and
the two crossover points the paper quotes: ~40 documents (at 10
attributes) and ~2,500 attributes (at 10k documents).
"""
from __future__ import annotations

import _common  # noqa: F401  (puts src on sys.path)
from repro.core.cost import CostModel

if __name__ == "__main__":
    m = CostModel()
    print("== Figure 3: token-cost crossovers (10k tokens/doc) ==")
    print(f"crossover in #documents at 10 attrs : {m.crossover_docs(10):.0f}"
          " (paper: ~40)")
    print(f"crossover in #attributes at 10k docs: {m.crossover_attrs(10_000):.0f}"
          " (paper: ~2,500)")
    print("\n#docs (10 attrs): direct vs code tokens")
    for n in (10, 40, 100, 1_000, 10_000):
        print(f"  n={n:>6}: direct={m.direct_tokens(n)/1e6:10.2f}M "
              f"code={m.code_tokens(n)/1e6:8.2f}M")
    print("\n#attrs (10k docs): direct vs code tokens")
    for a in (10, 100, 1_000, 2_500, 5_000):
        print(f"  m={a:>6}: direct={m.direct_tokens(10_000, a)/1e6:10.2f}M "
              f"code={m.code_tokens(10_000, a)/1e6:8.2f}M")
