"""Schema synthesis (§3.2.1): identify attributes from a small doc sample.

Processes only k << n documents with the OpenIE prompt, counts the
attribute surfaces, then a re-ranking LLM call merges aliases to
canonical names and upweights attributes it judges useful. The token
cost is fixed with respect to the lake size — this is half of the
paper's sublinearity argument.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chunk import split_chunks
from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM
from repro.llm.tokens import TokenLedger
from repro.util import normalize_attr

UPWEIGHT = 3.0  # multiplicative boost for LLM-endorsed attributes (§3.2.1)


@dataclass
class SchemaResult:
    """Ranked candidate attributes + the tokens spent finding them."""

    ranked_attrs: list[str]
    counts: dict[str, float]
    ledger: TokenLedger = field(default_factory=TokenLedger)


def sample_doc_ids(lake: DataLake, k: int) -> list[str]:
    """Deterministic evenly-spaced sample of k document ids."""
    ids = sorted(lake.docs.doc_id)
    if k >= len(ids):
        return ids
    step = len(ids) / k
    return [ids[int(i * step)] for i in range(k)]


def synthesize_schema(
    lake: DataLake, llm: MockLLM, k_sample: int = 10
) -> SchemaResult:
    """Run schema synthesis over a k-document sample (driver-side: the
    sample is tiny by design; the scale-out work is elsewhere)."""
    ledger = TokenLedger()
    counts: dict[str, int] = {}
    for doc_id in sample_doc_ids(lake, k_sample):
        chunks = split_chunks(lake.text_of[doc_id])
        seen: set[str] = set()
        for ci, ch in enumerate(chunks):
            pairs, t = llm.openie_extract(doc_id, ch, ci, len(chunks))
            ledger.add("schema", t)
            for a, v in pairs:
                na = normalize_attr(a)
                if na and v:
                    seen.add(na)
        for a in seen:
            counts[a] = counts.get(a, 0) + 1

    merged, useful, t = llm.rerank_attributes(counts)
    ledger.add("rerank", t)
    weighted = {
        a: c * (UPWEIGHT if a in useful else 1.0) for a, c in merged.items()
    }
    ranked = sorted(weighted, key=lambda a: (-weighted[a], a))
    return SchemaResult(ranked_attrs=ranked, counts=weighted, ledger=ledger)
