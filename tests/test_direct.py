"""Tests for the EVAPORATE-DIRECT pipeline (Spark mapInPandas over docs)."""
import dataclasses

import pandas as pd
import pytest

from repro.core.chunk import split_chunks
from repro.core.direct import run_closed_direct, run_direct
from repro.core.metrics import closed_text_f1, pair_f1
from repro.lakes.base import filler
from repro.llm.mock_llm import MockLLM


@pytest.fixture(scope="module")
def fda_direct(spark, fda_lake):
    return run_direct(spark, fda_lake)


class TestRunDirect:
    def test_table_columns(self, fda_direct):
        assert list(fda_direct.table.columns) == ["doc_id", "attribute", "value"]

    def test_covers_documents(self, fda_lake, fda_direct):
        assert fda_direct.table.doc_id.nunique() > fda_lake.n_docs * 0.8

    def test_tokens_positive_and_linear(self, spark, fda_lake, fda_direct):
        ids = sorted(fda_lake.docs.doc_id)[:6]
        half = run_direct(spark, fda_lake, doc_ids=ids)
        assert 0 < half.tokens < fda_direct.tokens

    def test_tokens_sum_every_chunk_of_every_doc(self, spark, enron_lake):
        """``tokens`` is the driver-side sum of openie_extract's tokens over
        every chunk of every selected doc, docs that yield no pair included."""
        blank = pd.DataFrame({"doc_id": [f"blank-{i}" for i in range(4)],
                              "variant": "blank", "text": filler(2500, "blank")})
        lake = dataclasses.replace(
            enron_lake, docs=pd.concat([enron_lake.docs, blank], ignore_index=True))
        ids = sorted(enron_lake.docs.doc_id)[:4] + list(blank.doc_id)
        res = run_direct(spark, lake, doc_ids=ids)

        llm = MockLLM(lake)
        expected, no_pair = 0, []
        for d in ids:
            chunks = split_chunks(lake.text_of[d])
            outs = [llm.openie_extract(d, ch, i, len(chunks))
                    for i, ch in enumerate(chunks)]
            expected += sum(t for _, t in outs)
            if not any(pairs for pairs, _ in outs):
                no_pair.append(d)
        assert no_pair and not set(no_pair) & set(res.table.doc_id)
        assert res.tokens == expected

    def test_head_restricts_attributes(self, fda_lake, fda_direct):
        """The table keeps at most as many attributes as the gold schema,
        the most frequent ones."""
        k = len(fda_lake.gold_attrs)
        assert len(fda_direct.ranked_attrs) > k
        assert set(fda_direct.table.attribute) <= set(fda_direct.ranked_attrs[:k])

    def test_ranked_attrs_head_is_gold_heavy(self, fda_lake, fda_direct):
        k = len(fda_lake.gold_attrs)
        head = set(fda_direct.ranked_attrs[:k])
        overlap = head & set(fda_lake.gold_attrs)
        assert len(overlap) >= k * 0.4

    def test_deterministic(self, spark, fda_lake):
        ids = sorted(fda_lake.docs.doc_id)[:5]
        a = run_direct(spark, fda_lake, doc_ids=ids)
        b = run_direct(spark, fda_lake, doc_ids=ids)
        pa = a.table.sort_values(["doc_id", "attribute"]).reset_index(drop=True)
        pb = b.table.sort_values(["doc_id", "attribute"]).reset_index(drop=True)
        assert pa.equals(pb) and a.tokens == b.tokens

    def test_quality_midrange_on_fda(self, fda_lake, fda_direct):
        """Direct quality on FDA sits in the paper's band: well below
        perfect (inconsistency errors), well above chance."""
        prf = pair_f1(fda_direct.table, fda_lake.gold)
        assert 0.2 < prf.f1 < 0.75

    def test_easy_lake_beats_hard_lake(self, spark, enron_lake, fda_lake, fda_direct):
        enron = run_direct(spark, enron_lake)
        e_prf = pair_f1(enron.table, enron_lake.gold)
        f_prf = pair_f1(fda_direct.table, fda_lake.gold)
        assert e_prf.f1 > f_prf.f1 + 0.15  # Enron ~0.9 vs FDA ~0.45


class TestRunClosedDirect:
    def test_grid_complete(self, spark, enron_lake):
        ids = sorted(enron_lake.docs.doc_id)[:5]
        res = run_closed_direct(spark, enron_lake, enron_lake.gold_attrs,
                                doc_ids=ids)
        assert len(res.table) == len(ids) * len(enron_lake.gold_attrs)
        assert res.tokens > 0

    def test_closed_beats_open_quality(self, spark, fda_lake, fda_direct):
        """ClosedIE (attribute given) is the LLM's high-quality mode —
        Text F1 well above the OpenIE pair F1 (Table 7 vs Table 3)."""
        ids = sorted(fda_lake.docs.doc_id)[:8]
        res = run_closed_direct(spark, fda_lake, fda_lake.gold_attrs, doc_ids=ids)
        f1 = closed_text_f1(res.table,
                            fda_lake.gold[fda_lake.gold.doc_id.isin(ids)],
                            fda_lake.gold_attrs, ids)
        assert f1 > 0.6
