"""Tests for the baseline systems (DOM wrapper, naive OpenIE, QA span)."""
import pytest

from repro.baselines.dom_extractor import (DomExtractor, run_dom_baseline,
                                           train_test_split)
from repro.baselines.openie_naive import extract_triples, run_openie_baseline
from repro.baselines.qa_span import run_qa_span_baseline
from repro.core.metrics import closed_text_f1, pair_f1


class TestDomExtractor:
    def test_split_disjoint(self, movie_lake):
        train, test = train_test_split(movie_lake)
        assert not (train & test)
        assert train | test == set(movie_lake.docs.doc_id)

    def test_learns_patterns_in_domain(self, movie_lake):
        train, _ = train_test_split(movie_lake)
        model = DomExtractor().fit(
            movie_lake.docs[movie_lake.docs.doc_id.isin(train)],
            movie_lake.gold[movie_lake.gold.doc_id.isin(train)])
        assert len(model.patterns) >= 4  # learns wrappers for leaf attrs

    def test_cannot_reach_title_tag_attribute(self, movie_lake):
        """SWDE-Plus: the title lives in <title>, not a DOM leaf — the
        wrapper baseline must miss it (the paper's §4.3 limitation)."""
        preds, attrs, test_ids = run_dom_baseline(None, movie_lake)
        assert "title" not in set(preds.attribute)

    def test_midrange_quality(self, spark, movie_lake):
        preds, attrs, test_ids = run_dom_baseline(spark, movie_lake)
        gold = movie_lake.gold[movie_lake.gold.doc_id.isin(test_ids)]
        prf = pair_f1(preds, gold)
        assert 0.2 < prf.f1 < 0.9  # trained in-domain: decent, not perfect

    def test_extracted_values_match_gold_when_found(self, movie_lake):
        preds, _, test_ids = run_dom_baseline(None, movie_lake)
        gold = {(r.doc_id, r.attribute): r.value
                for r in movie_lake.gold.itertuples()}
        hits = sum(gold.get((r.doc_id, r.attribute)) == r.value
                   for r in preds.itertuples())
        assert hits / max(1, len(preds)) > 0.5


class TestOpenIENaive:
    def test_floods_relations(self, fda_lake):
        """Appendix C.1: OpenIE6 extracts hundreds of unnormalized
        relations per document collection."""
        table = run_openie_baseline(fda_lake)
        assert len(table) > fda_lake.n_docs * 3

    def test_useless_for_pair_f1(self, fda_lake):
        table = run_openie_baseline(fda_lake)
        prf = pair_f1(table, fda_lake.gold)
        assert prf.f1 < 0.05

    def test_triples_from_sentences(self):
        triples = extract_triples("The device is a monitor. The report shows results.")
        assert len(triples) >= 2
        assert all(len(t) == 3 for t in triples)

    def test_cap(self):
        text = "The device is a patient monitor. " * 2000
        assert len(extract_triples(text, max_triples=100)) == 100


class TestQASpan:
    def test_midrange_closed_f1(self, fda_lake):
        """Table 6 band: clearly worse than Evaporate's ClosedIE, far
        better than zero."""
        preds = run_qa_span_baseline(fda_lake)
        f1 = closed_text_f1(preds, fda_lake.gold, fda_lake.gold_attrs,
                            sorted(fda_lake.docs.doc_id))
        assert 0.25 < f1 < 0.75

    def test_degrades_on_markup(self, fda_lake, nba_lake):
        f_txt = closed_text_f1(run_qa_span_baseline(fda_lake), fda_lake.gold,
                               fda_lake.gold_attrs, sorted(fda_lake.docs.doc_id))
        f_html = closed_text_f1(run_qa_span_baseline(nba_lake), nba_lake.gold,
                                nba_lake.gold_attrs, sorted(nba_lake.docs.doc_id))
        assert f_txt > f_html  # markup-heavy pages hurt span extraction

    def test_deterministic(self, fda_lake):
        a = run_qa_span_baseline(fda_lake)
        b = run_qa_span_baseline(fda_lake)
        assert a.equals(b)
