"""EVAPORATE-DIRECT (§3.1): prompt the LLM on every chunk of every doc.

The distributed dataflow: documents live in a Spark DataFrame and an
Arrow ``mapInPandas`` UDF invokes the (simulated) LLM per chunk and
emits one row per document: its tokens and its attribute -> value map,
merged over the document's chunks. Attributes are then ranked by
document frequency; the head attributes, as many as the lake's gold
schema has, form the output table (§3.1 "Prioritizing common attributes").

Also hosts the ClosedIE direct extractor (prompt E.2) used for Table 2's
Direct rows, Table 7, and Algorithm 1's D_eval labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.chunk import split_chunks
from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM
from repro.util import normalize_attr

_DOC_SCHEMA = "doc_id string, tokens long, pairs map<string,string>"
_OUT_SCHEMA = "doc_id string, attribute string, value string, tokens long"


@dataclass
class DirectResult:
    """Output of an Evaporate-Direct run."""

    table: pd.DataFrame  # (doc_id, attribute, value) — head attributes only
    ranked_attrs: list[str]  # all extracted attributes, frequency-ranked
    tokens: int  # total LLM tokens processed


def run_direct(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    doc_ids: list[str] | None = None,
) -> DirectResult:
    """Run the direct-extraction pipeline over the lake (or a doc sample).

    The table keeps the ``len(lake.gold_attrs)`` most frequent attributes.
    """
    llm = MockLLM(lake, model, seed)
    sdf = spark.createDataFrame(lake.select_docs(doc_ids)[["doc_id", "text"]])

    def extract(batches):
        for pdf in batches:
            rows = []
            for r in pdf.itertuples(index=False):
                chunks = split_chunks(r.text)
                doc_tokens = 0
                merged: dict[str, str] = {}
                for ci, ch in enumerate(chunks):
                    pairs, t = llm.openie_extract(r.doc_id, ch, ci, len(chunks))
                    doc_tokens += t
                    for a, v in pairs:
                        na = normalize_attr(a)
                        if na and v and na not in merged:
                            merged[na] = v
                rows.append((r.doc_id, doc_tokens, merged))
            yield pd.DataFrame(rows, columns=["doc_id", "tokens", "pairs"])

    raw = sdf.mapInPandas(extract, _DOC_SCHEMA).persist()
    try:
        tokens = raw.agg(F.sum("tokens")).collect()[0][0] or 0
        ext = raw.select("doc_id", F.explode("pairs").alias("attribute", "value"))
        freq = (
            ext.groupBy("attribute")
            .agg(F.countDistinct("doc_id").alias("n"))
            .orderBy(F.desc("n"), F.asc("attribute"))
        )
        ranked = [r["attribute"] for r in freq.collect()]
        head = set(ranked[: len(lake.gold_attrs)])
        table = ext.filter(F.col("attribute").isin(head)).toPandas()
    finally:
        raw.unpersist()
    return DirectResult(table=table, ranked_attrs=ranked, tokens=int(tokens))


def run_closed_direct(
    spark: SparkSession,
    lake: DataLake,
    attrs: list[str],
    model: str = "davinci",
    seed: int = 0,
    doc_ids: list[str] | None = None,
) -> DirectResult:
    """ClosedIE with the LLM F: extract each given attribute per document.

    One LLM call per (doc, attribute) over the full document text — the
    expensive high-quality extractor the paper measures in Table 7 and
    uses as Algorithm 1's pseudo-labels.
    """
    llm = MockLLM(lake, model, seed)
    sdf = spark.createDataFrame(lake.select_docs(doc_ids)[["doc_id", "text"]])
    attrs_b = list(attrs)

    def extract(batches):
        for pdf in batches:
            rows = []
            for r in pdf.itertuples(index=False):
                for a in attrs_b:
                    ctx = llm.mention_chunk(a, r.text)
                    v, t = llm.closed_extract(r.doc_id, a, ctx)
                    rows.append((r.doc_id, a, v, t))
            yield pd.DataFrame(rows, columns=["doc_id", "attribute", "value", "tokens"])

    out = sdf.mapInPandas(extract, _OUT_SCHEMA).toPandas()
    return DirectResult(
        table=out[["doc_id", "attribute", "value"]],
        ranked_attrs=attrs_b,
        tokens=int(out.tokens.sum()),
    )
