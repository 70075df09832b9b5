"""Algorithm 1 (EVAPORATE-CODE+): score, filter, and ensemble functions.

Steps, mapped to the paper's pseudocode:
  2. Collect sample predictions — votes on D_eval + LLM F labels.
  3. Handle abstentions — estimate ``e`` = fraction of D_eval docs where
     F extracts a value; e > TAU means empty function outputs are
     *abstentions*, e <= TAU means they are *predictions of no-value*.
  4. Score functions — Text-F1 agreement with F's labels; in the high-e
     regime a function is scored only where it extracted a value (so
     high-precision / low-recall variant-specific functions survive).
  5. Filter — drop s_j <= 0.5 (worse-than-random, the WS assumption),
     keep the TOP_M scorers.
  6. Collect votes — full-lake function execution (``execute.py``).
  7. Aggregation — per-document top-B vote bucketing, then the WS label
     model's accuracy-weighted vote (or plain MV for the baseline),
     executed as Spark groupBy/window over the votes DataFrame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.metrics import text_f1_strings
from repro.core.synthesis import Candidate
from repro.core.ws import B, Pattern, fit_label_model
from repro.lakes.base import DataLake
from repro.llm.mock_llm import CHATBOT_REFUSAL, MockLLM
from repro.llm.tokens import TokenLedger

TAU = 0.5  # abstention threshold on e (step 3)
TOP_M = 10  # functions kept per attribute (step 5)


@dataclass(frozen=True)
class AggConfig:
    """Aggregation strategy (Table 4 ablation axes)."""

    method: str = "ws"  # "ws" | "mv"
    use_filter: bool = True
    use_abstain: bool = True


# Table 4 columns
AGGREGATORS: dict[str, AggConfig] = {
    "mv": AggConfig(method="mv", use_filter=False, use_abstain=False),
    "ws": AggConfig(method="ws", use_filter=False, use_abstain=False),
    "ws_filter": AggConfig(method="ws", use_filter=True, use_abstain=False),
    "ws_abstain_filter": AggConfig(method="ws", use_filter=True, use_abstain=True),
}


@dataclass
class AttrPlan:
    """Per-attribute outcome of scoring/filtering + learned vote weights."""

    attribute: str
    e: float
    scores: dict[str, float]
    kept: list[str]
    weights: dict[str, float]
    drop_empty: bool  # e > TAU and abstentions enabled

    @property
    def alive(self) -> bool:
        return bool(self.kept)


def eval_labels(
    lake: DataLake, llm: MockLLM, attr: str, eval_ids: list[str],
    ledger: TokenLedger,
) -> dict[str, str]:
    """LLM F extractions on D_eval — Algorithm 1's pseudo ground truth."""
    out: dict[str, str] = {}
    for d in eval_ids:
        ctx = llm.mention_chunk(attr, lake.text_of[d])
        v, t = llm.closed_extract(d, attr, ctx)
        ledger.add("eval_labels", t)
        out[d] = "" if v == CHATBOT_REFUSAL else v
    return out


def score_and_plan(
    attr: str,
    candidates: list[Candidate],
    labels: dict[str, str],
    votes: pd.DataFrame,
    cfg: AggConfig,
) -> AttrPlan:
    """Steps 3-5 + label-model fitting for one attribute.

    ``votes`` holds this attribute's votes on every document. Scoring
    reads the rows of the D_eval documents (the keys of ``labels``); the
    label model is fit on every document's votes from the kept functions.
    """
    e = (
        sum(1 for v in labels.values() if v) / len(labels) if labels else 0.0
    )
    ev = votes[votes.doc_id.isin(list(labels))]
    vote_of = {(r.doc_id, r.fid): r.value for r in ev.itertuples()}
    fids = [c.fid for c in candidates if c.attribute == attr]

    # Scoring regime: without abstention-handling, functions are scored
    # only where they fired (the off-the-shelf assumption that empty
    # means abstain). With it, the regime is e-conditional: high-e keeps
    # fired-only precision scoring; low-e scores over all of D_eval so
    # empty-on-absent counts as correct and fire-on-absent is penalized.
    fired_only = (not cfg.use_abstain) or e > TAU
    scores: dict[str, float] = {}
    for fid in fids:
        ms: list[float] = []
        for d, lab in labels.items():
            vote = vote_of.get((d, fid), "")
            if fired_only and not vote:
                continue
            ms.append(text_f1_strings(lab, vote))
        scores[fid] = sum(ms) / len(ms) if ms else 0.0

    if cfg.use_filter:
        kept = [f for f in fids if scores[f] > 0.5]
        kept = sorted(kept, key=lambda f: (-scores[f], f))[:TOP_M]
    else:
        kept = sorted(fids, key=lambda f: (-scores[f], f))[:TOP_M]

    # Voting: off-the-shelf MV/WS treat empty outputs as abstentions
    # (Snorkel convention). With abstention handling, empties become
    # *no-value predictions* in the low-e regime, letting the ensemble
    # actively suppress hallucinated values for absent attributes.
    drop_empty = e > TAU if cfg.use_abstain else True
    weights = {f: 1.0 for f in kept}
    if cfg.method == "ws" and kept:
        model = fit_label_model(vote_patterns(votes, kept, drop_empty), kept)
        weights = {f: model.weight(f) for f in kept}
    return AttrPlan(attr, e, scores, kept, weights, drop_empty)


def vote_patterns(
    votes: pd.DataFrame, kept: list[str], drop_empty: bool
) -> dict[Pattern, int]:
    """Count the documents of each agreement pattern of the kept votes.

    Per document: empty votes abstain if ``drop_empty``; only votes in
    the top-B value buckets (by count, then value) stay; each remaining
    vote becomes ``(fid, rank)``, ``rank`` being its value's position
    among the document's remaining distinct values in string order.
    """
    v = votes[votes.fid.isin(kept)]
    if drop_empty:
        v = v[v.value != ""]
    if v.empty:
        return {}
    doc, _ = pd.factorize(v.doc_id)
    val, _ = pd.factorize(v.value, sort=True)  # codes follow string order
    fid, fid_order = pd.factorize(v.fid, sort=True)

    # value buckets in (doc, value) order, with their vote counts
    n_val = val.max() + 1
    keys, bucket, size = np.unique(
        doc * n_val + val, return_inverse=True, return_counts=True)
    b_doc = keys // n_val
    by_size = np.lexsort((keys, -size, b_doc))
    top = np.zeros(len(keys), dtype=bool)
    top[by_size] = _cumcount(b_doc[by_size]) < B
    rank = np.full(len(keys), -1)
    rank[top] = _cumcount(b_doc[top])

    # one row per document, one column per fid: rank + 1, 0 = no vote
    grid = np.zeros((doc.max() + 1, len(fid_order)), dtype=np.int8)
    grid[doc, fid] = rank[bucket] + 1
    rows, counts = np.unique(grid, axis=0, return_counts=True)
    return {
        tuple((fid_order[j], int(row[j]) - 1) for j in np.flatnonzero(row)): int(n)
        for row, n in zip(rows, counts)
    }


def _cumcount(groups: np.ndarray) -> np.ndarray:
    """Each element's position among the earlier elements of its group."""
    return pd.Series(groups).groupby(groups).cumcount().to_numpy()


def aggregate_votes_spark(
    spark: SparkSession,
    votes: DataFrame,
    plans: dict[str, AttrPlan],
) -> DataFrame:
    """Step 7 at scale: weighted vote per (doc, attribute) in Spark.

    Joins the votes DataFrame with the per-function weight table, applies
    the abstention rule and per-document top-b bucketing with window
    functions, and picks the argmax-weight value per cell. Returns
    ``(doc_id, attribute, value)`` with empty/no-vote cells absent.
    """
    rows = [
        (p.attribute, fid, float(p.weights.get(fid, 1.0)), bool(p.drop_empty))
        for p in plans.values() if p.alive
        for fid in p.kept
    ]
    if not rows:
        return spark.createDataFrame(
            [], schema="doc_id string, attribute string, value string"
        )
    wdf = spark.createDataFrame(
        pd.DataFrame(rows, columns=["attribute", "fid", "weight", "drop_empty"])
    )
    v = votes.join(wdf, on=["attribute", "fid"], how="inner")
    v = v.filter(~(F.col("drop_empty") & (F.col("value") == "")))

    # per-doc top-b bucketing on raw counts
    cell = Window.partitionBy("doc_id", "attribute")
    counts = v.groupBy("doc_id", "attribute", "value").agg(
        F.count("*").alias("n"), F.sum("weight").alias("score")
    )
    bucketed = counts.withColumn(
        "bucket_rank",
        F.row_number().over(cell.orderBy(F.desc("n"), F.asc("value"))),
    ).filter(F.col("bucket_rank") <= B)

    winner = bucketed.withColumn(
        "rank",
        F.row_number().over(cell.orderBy(F.desc("score"), F.asc("value"))),
    ).filter(F.col("rank") == 1)
    return winner.filter(F.col("value") != "").select("doc_id", "attribute", "value")


__all__ = [
    "TAU", "TOP_M", "B", "AggConfig", "AGGREGATORS", "AttrPlan", "eval_labels",
    "score_and_plan", "vote_patterns", "aggregate_votes_spark",
]
