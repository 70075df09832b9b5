"""Tests for schema synthesis (§3.2.1)."""
import pytest

from repro.core.metrics import schema_f1_at_k
from repro.core.schema import sample_doc_ids, synthesize_schema
from repro.llm.mock_llm import MockLLM


class TestSampleDocIds:
    def test_returns_k(self, fda_lake):
        assert len(sample_doc_ids(fda_lake, 10)) == 10

    def test_k_exceeds_n(self, fda_lake):
        assert len(sample_doc_ids(fda_lake, 10_000)) == fda_lake.n_docs

    def test_deterministic(self, fda_lake):
        assert sample_doc_ids(fda_lake, 7) == sample_doc_ids(fda_lake, 7)

    def test_spread_across_lake(self, fda_lake):
        ids = sample_doc_ids(fda_lake, 5)
        nums = [int(i.split("-")[-1]) for i in ids]
        assert max(nums) - min(nums) > fda_lake.n_docs // 2

    def test_valid_ids(self, fda_lake):
        assert set(sample_doc_ids(fda_lake, 6)) <= set(fda_lake.docs.doc_id)


class TestSynthesizeSchema:
    def test_recovers_most_gold_attrs(self, fda_lake, fda_llm):
        sr = synthesize_schema(fda_lake, fda_llm)
        k = len(fda_lake.gold_attrs)
        f1 = schema_f1_at_k(sr.ranked_attrs, fda_lake.gold_attrs)
        assert 0.4 < f1 <= 1.0

    def test_tokens_metered_by_stage(self, fda_lake, fda_llm):
        sr = synthesize_schema(fda_lake, fda_llm)
        assert sr.ledger.by_stage["schema"] > 0
        assert sr.ledger.by_stage["rerank"] > 0

    def test_cost_independent_of_lake_size(self, fda_lake, fda_llm):
        """Schema tokens depend on the k-doc sample, not lake size."""
        from repro.lakes import registry
        big = registry.make_lake("fda", 48)
        small = synthesize_schema(fda_lake, fda_llm).ledger.total
        bigger = synthesize_schema(big, MockLLM(big, "davinci")).ledger.total
        assert bigger < small * 1.6  # same 10-doc sample footprint

    def test_deterministic(self, fda_lake, fda_llm):
        a = synthesize_schema(fda_lake, fda_llm).ranked_attrs
        b = synthesize_schema(fda_lake, fda_llm).ranked_attrs
        assert a == b

    def test_weaker_model_worse_schema(self, fda_lake, fda_llm):
        strong = synthesize_schema(fda_lake, fda_llm)
        weak = synthesize_schema(fda_lake, MockLLM(fda_lake, "jumbo"))
        s = schema_f1_at_k(strong.ranked_attrs, fda_lake.gold_attrs)
        w = schema_f1_at_k(weak.ranked_attrs, fda_lake.gold_attrs)
        assert s >= w

    def test_counts_positive(self, fda_lake, fda_llm):
        sr = synthesize_schema(fda_lake, fda_llm)
        assert all(c > 0 for c in sr.counts.values())

    def test_ranked_by_weighted_count(self, fda_lake, fda_llm):
        sr = synthesize_schema(fda_lake, fda_llm)
        weights = [sr.counts[a] for a in sr.ranked_attrs]
        assert weights == sorted(weights, reverse=True)
