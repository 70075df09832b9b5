"""Scale-out execution of synthesized functions over the lake.

This is the cheap side of the paper's cost asymmetry: functions process
every document *without* the LLM. Function sources ride into a Spark
``mapInPandas`` UDF as strings (code objects don't pickle) and are
compiled once per partition; the output is a long votes DataFrame
``(doc_id, attribute, fid, value)`` consumed by Algorithm 1.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.synthesis import Candidate, compile_candidate
from repro.lakes.base import DataLake

VOTES_SCHEMA = "doc_id string, attribute string, fid string, value string"


def run_functions(
    spark: SparkSession,
    lake: DataLake,
    candidates: list[Candidate],
    doc_ids: list[str] | None = None,
) -> DataFrame:
    """Apply every candidate function to every document -> votes DF."""
    sdf = spark.createDataFrame(lake.select_docs(doc_ids)[["doc_id", "text"]])
    cand_list = [(c.fid, c.attribute, c.source, c.fn_name) for c in candidates]

    def apply_fns(batches):
        compiled = [
            (fid, attr, compile_candidate(Candidate(fid, attr, "?", src, fn_name)))
            for fid, attr, src, fn_name in cand_list
        ]
        for pdf in batches:
            rows = []
            for r in pdf.itertuples(index=False):
                for fid, attr, fn in compiled:
                    rows.append((r.doc_id, attr, fid, fn(r.text)))
            yield pd.DataFrame(rows, columns=["doc_id", "attribute", "fid", "value"])

    return sdf.mapInPandas(apply_fns, VOTES_SCHEMA)
