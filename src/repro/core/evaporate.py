"""End-to-end orchestration of the three EVAPORATE implementations.

``run_direct`` lives in ``direct.py``; this module wires the code-path
pipelines: schema synthesis -> candidate generation -> scale-out function
execution (Spark) -> Algorithm-1 aggregation. ``prepare_code`` computes
the shared artifacts once so the Table-4 ablation can re-aggregate the
same votes under MV / WS / WS+Filter / WS+Abstain+Filter without
re-synthesizing anything. Each run builds one ``MockLLM`` and hands it
to every stage.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core import aggregate as agg
from repro.core.schema import SchemaResult, sample_doc_ids, synthesize_schema
from repro.core.synthesis import Candidate, generate_candidates
from repro.core.execute import run_functions
from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM
from repro.llm.tokens import TokenLedger

N_SCHEMA_SAMPLE = 10  # docs for schema synthesis + D_eval (paper §4.1)
N_FN_SAMPLE = 5  # docs whose chunks seed function synthesis (§4.4.1)


@dataclass
class RunResult:
    """Structured view + provenance for one pipeline run."""

    table: pd.DataFrame  # (doc_id, attribute, value)
    attrs: list[str]
    ledger: TokenLedger
    schema: SchemaResult | None = None
    plans: dict[str, agg.AttrPlan] = field(default_factory=dict)

    @property
    def tokens(self) -> int:
        return self.ledger.total


@dataclass
class CodeArtifacts:
    """Everything the code pipelines share before aggregation."""

    lake: DataLake
    llm: MockLLM  # the run's one simulator
    attrs: list[str]
    candidates: list[Candidate]
    votes: object  # persisted Spark DataFrame (doc_id, attribute, fid, value)
    votes_all: pd.DataFrame
    labels: dict[str, dict[str, str]]  # attr -> D_eval doc -> LLM F label
    doc_ids: list[str] | None
    ledger: TokenLedger
    schema: SchemaResult | None

    def unpersist(self) -> None:
        self.votes.unpersist()


def _synthesize(
    lake: DataLake,
    llm: MockLLM,
    given_attrs: list[str] | None,
    sample_ids: list[str],
    styles: tuple[str, ...],
    ledger: TokenLedger,
) -> tuple[list[str], SchemaResult | None, list[Candidate]]:
    """The run's attributes (``given_attrs``, or the head of a synthesized
    schema), the schema if one was synthesized, and every attribute's
    candidate functions.

    ``synthesize_schema`` and ``generate_candidates`` are looked up in this
    module's globals, where ``perfbench/spans.py`` rebinds them to trace them.
    """
    schema: SchemaResult | None = None
    if given_attrs is not None:
        attrs = list(given_attrs)
    else:
        schema = synthesize_schema(lake, llm, k_sample=N_SCHEMA_SAMPLE)
        ledger.merge(schema.ledger)
        attrs = schema.ranked_attrs[: len(lake.gold_attrs)]
    candidates = [
        c for a in attrs for c in generate_candidates(
            lake, a, llm, sample_ids=sample_ids, styles=styles, ledger=ledger)
    ]
    return attrs, schema, candidates


def prepare_code(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    given_attrs: list[str] | None = None,
    doc_ids: list[str] | None = None,
) -> CodeArtifacts:
    """Schema (unless ClosedIE), candidates, votes, and D_eval labels."""
    ledger = TokenLedger()
    llm = MockLLM(lake, model, seed)
    attrs, schema, candidates = _synthesize(
        lake, llm, given_attrs, sample_doc_ids(lake, N_FN_SAMPLE), ("A", "B"), ledger)

    eval_ids = sample_doc_ids(lake, N_SCHEMA_SAMPLE)
    run_ids = None
    if doc_ids is not None:
        run_ids = sorted(set(doc_ids) | set(eval_ids))
    votes = run_functions(spark, lake, candidates, run_ids).persist()
    labels = {
        a: agg.eval_labels(lake, llm, a, eval_ids, ledger) for a in attrs
    }
    return CodeArtifacts(
        lake=lake, llm=llm, attrs=attrs, candidates=candidates, votes=votes,
        votes_all=votes.toPandas(), labels=labels, doc_ids=doc_ids,
        ledger=ledger, schema=schema,
    )


def finish_code_plus(
    spark: SparkSession,
    art: CodeArtifacts,
    aggregator: str = "ws_abstain_filter",
) -> RunResult:
    """Algorithm-1 aggregation on prepared artifacts -> structured view.

    Every surviving attribute is validated by the LLM on a sample of its
    kept functions' values; a rejected attribute is dropped.
    """
    cfg = agg.AGGREGATORS[aggregator]
    ledger = TokenLedger().merge(art.ledger)

    plans: dict[str, agg.AttrPlan] = {}
    # each attribute's row positions, ascending: one pass over the frame
    rows_of = art.votes_all.groupby("attribute").indices
    for a in art.attrs:
        votes = art.votes_all.iloc[rows_of.get(a, [])]
        plan = agg.score_and_plan(a, art.candidates, art.labels[a], votes, cfg)
        if plan.alive:
            kept = votes[votes.fid.isin(plan.kept)]
            sample_vals = [v for v in kept.value.tolist() if v][:5]
            ok, t = art.llm.validate_attribute(a, sample_vals)
            ledger.add("validation", t)
            if not ok:
                plan.kept = []
        plans[a] = plan

    votes = art.votes
    if art.doc_ids is not None:
        votes = votes.filter(F.col("doc_id").isin(set(art.doc_ids)))
    table = agg.aggregate_votes_spark(spark, votes, plans).toPandas()
    return RunResult(
        table=table, attrs=[a for a in art.attrs if plans[a].alive],
        ledger=ledger, schema=art.schema, plans=plans,
    )


def run_code_plus(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    given_attrs: list[str] | None = None,
    doc_ids: list[str] | None = None,
) -> RunResult:
    """EVAPORATE-CODE+ end-to-end (§3.3)."""
    art = prepare_code(spark, lake, model, seed, given_attrs, doc_ids)
    try:
        return finish_code_plus(spark, art)
    finally:
        art.unpersist()


def run_code(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    given_attrs: list[str] | None = None,
) -> RunResult:
    """EVAPORATE-CODE (§3.2): a single synthesized function per attribute,
    no scoring, no filtering, no ensembling."""
    ledger = TokenLedger()
    llm = MockLLM(lake, model, seed)
    # one sample document and one prompt style: one function per attribute
    attrs, schema, candidates = _synthesize(
        lake, llm, given_attrs, sample_doc_ids(lake, 1), ("A",), ledger)

    # with one function per attribute, its non-empty outputs are the table
    votes = run_functions(spark, lake, candidates)
    table = votes.filter(F.col("value") != "").select(
        "doc_id", "attribute", "value").toPandas()
    return RunResult(table=table, attrs=attrs, ledger=ledger, schema=schema)
