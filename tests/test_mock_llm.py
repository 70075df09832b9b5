"""Tests for the LLM simulator — extraction channels, code synthesis,
token metering, and cross-model behaviour."""
import pytest

from repro.core.chunk import split_chunks
from repro.core.synthesis import Candidate, compile_candidate
from repro.llm.mock_llm import (CHATBOT_REFUSAL, PROFILES, MockLLM,
                                _fn_name, _roll_corruption)
from repro.util import normalize_attr


@pytest.fixture(scope="module")
def enron_llm(enron_lake):
    return MockLLM(enron_lake, "davinci")


class TestProfiles:
    def test_all_models_registered(self):
        assert set(PROFILES) == {"davinci", "gpt4", "claude", "jumbo", "curie"}

    def test_jumbo_has_context_limit(self):
        assert PROFILES["jumbo"].max_chunks is not None
        assert PROFILES["davinci"].max_chunks is None

    def test_weaker_models_more_corrupt(self):
        assert PROFILES["jumbo"].fn_corrupt > PROFILES["claude"].fn_corrupt
        assert PROFILES["claude"].fn_corrupt > PROFILES["davinci"].fn_corrupt


class TestOpenIE:
    def test_extracts_pairs_with_provenance(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[0]
        chunks = split_chunks(doc.text)
        facts = dict(zip(
            fda_lake.facts[fda_lake.facts.doc_id == doc.doc_id].attribute,
            fda_lake.facts[fda_lake.facts.doc_id == doc.doc_id].value))
        pairs, tokens = fda_llm.openie_extract(doc.doc_id, chunks[0], 0, len(chunks))
        assert tokens > 0
        assert pairs  # something extracted from a dense chunk
        # most extracted values trace to real facts in this chunk
        # (attribute names may be reworded; at most one hallucination)
        vals = set(facts.values())
        real = [p for p in pairs
                if p[1] in vals or p[1].lower() in {v.lower() for v in vals}
                or any(p[1] in v or v in p[1] for v in vals)]
        assert len(real) >= len(pairs) - 1

    def test_deterministic(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[1]
        ch = split_chunks(doc.text)[0]
        assert fda_llm.openie_extract(doc.doc_id, ch) == \
            fda_llm.openie_extract(doc.doc_id, ch)

    def test_misses_some_attributes(self, fda_lake, fda_llm):
        """§4.4.1: the LLM misses a nontrivial share of gold attrs."""
        total = got = 0
        for _, doc in fda_lake.docs.iterrows():
            gold = fda_llm.gold_pairs(doc.doc_id)
            found = set()
            chunks = split_chunks(doc.text)
            for i, ch in enumerate(chunks):
                pairs, _ = fda_llm.openie_extract(doc.doc_id, ch, i, len(chunks))
                found |= {fda_llm.canonical(a) for a, _ in pairs}
            total += len(gold)
            got += len(set(gold) & found)
        assert 0.4 < got / total < 0.95

    def test_jumbo_collapses_on_long_docs(self, nba_lake):
        llm = MockLLM(nba_lake, "jumbo")
        doc = nba_lake.docs.iloc[0]
        chunks = split_chunks(doc.text)
        assert len(chunks) > 4  # NBA docs exceed jumbo's usable context
        pairs, _ = llm.openie_extract(doc.doc_id, chunks[0], 0, len(chunks))
        assert pairs == [("response", CHATBOT_REFUSAL)]

    def test_easy_lake_less_noise(self, enron_lake, fda_lake):
        """Extraction error scales with lake difficulty."""
        def accuracy(lake):
            llm = MockLLM(lake, "davinci")
            ok = tot = 0
            for _, doc in lake.docs.iterrows():
                gold = llm.gold_pairs(doc.doc_id)
                chunks = split_chunks(doc.text)
                for i, ch in enumerate(chunks):
                    for a, v in llm.openie_extract(doc.doc_id, ch, i, len(chunks))[0]:
                        canon = llm.canonical(a)
                        if canon in gold:
                            tot += 1
                            ok += int(a == canon and v == gold[canon])
            return ok / max(1, tot)
        assert accuracy(enron_lake) > accuracy(fda_lake) + 0.1


class TestClosedIE:
    def test_extracts_gold_value_mostly(self, enron_lake, enron_llm):
        ok = tot = 0
        text_of = dict(zip(enron_lake.docs.doc_id, enron_lake.docs.text))
        for r in enron_lake.gold.itertuples():
            v, t = enron_llm.closed_extract(r.doc_id, r.attribute, text_of[r.doc_id])
            tot += 1
            ok += int(v == r.value)
            assert t > 0
        assert ok / tot > 0.8

    def test_absent_attribute_mostly_empty(self, fda_lake, fda_llm):
        text_of = dict(zip(fda_lake.docs.doc_id, fda_lake.docs.text))
        empties = 0
        n = 0
        for doc_id in fda_lake.docs.doc_id:
            gold = fda_llm.gold_pairs(doc_id)
            for attr in fda_lake.gold_attrs:
                if attr not in gold:
                    n += 1
                    v, _ = fda_llm.closed_extract(doc_id, attr, text_of[doc_id])
                    empties += int(v == "")
        assert n > 0 and empties / n > 0.85

    def test_claude_sometimes_refuses(self, fda_lake):
        llm = MockLLM(fda_lake, "claude")
        text_of = dict(zip(fda_lake.docs.doc_id, fda_lake.docs.text))
        refusals = sum(
            llm.closed_extract(r.doc_id, r.attribute, text_of[r.doc_id])[0]
            == CHATBOT_REFUSAL
            for r in fda_lake.gold.itertuples()
        )
        assert refusals > 0  # the §4.4.2 ChatBot failure mode

    def test_tokens_scale_with_context(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[0]
        _, t_small = fda_llm.closed_extract(doc.doc_id, "applicant", doc.text[:400])
        _, t_big = fda_llm.closed_extract(doc.doc_id, "applicant", doc.text)
        assert t_big > t_small


class TestMentionChunk:
    def test_finds_labelled_chunk(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[0]
        gold = fda_llm.gold_pairs(doc.doc_id)
        attr = next(iter(gold))
        ch = fda_llm.mention_chunk(attr, doc.text)
        assert gold[attr] in ch or gold[attr].split(",")[0] in ch

    def test_finds_label_beyond_first_chunk(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[0]
        # an attribute present in this document but NOT in its first
        # chunk, so the keyword search has to do real work
        chunks = split_chunks(doc.text)
        gold = fda_llm.gold_pairs(doc.doc_id)
        attr = next(a for a in reversed(list(gold)) if gold[a] not in chunks[0])
        ch = fda_llm.mention_chunk(attr, doc.text)
        assert attr in ch.lower() or gold[attr] in ch

    def test_falls_back_to_first_chunk(self, fda_lake, fda_llm):
        ch = fda_llm.mention_chunk("nonexistent attribute xyz", "one\ntwo")
        assert ch == "one\ntwo"


class TestFunctionSynthesis:
    def test_emits_compilable_code(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[0]
        chunk = fda_llm.mention_chunk("applicant", doc.text)
        src, fn_name, tokens = fda_llm.synthesize_function(
            "applicant", chunk, "A", "salt")
        assert fn_name == "get_applicant_field"
        assert tokens > 0
        fn = compile_candidate(Candidate("f", "applicant", "A", src, fn_name))
        assert isinstance(fn(doc.text), str)

    def test_working_function_extracts_exact_value(self, enron_lake):
        llm = MockLLM(enron_lake, "davinci")
        # find an uncorrupted candidate by scanning salts
        doc = enron_lake.docs.iloc[0]
        gold = llm.gold_pairs(doc.doc_id)
        chunk = llm.mention_chunk("subject", doc.text)
        hits = 0
        for salt in range(12):
            src, fn_name, _ = llm.synthesize_function("subject", chunk, "A", str(salt))
            fn = compile_candidate(Candidate("f", "subject", "A", src, fn_name))
            if fn(doc.text) == gold.get("subject"):
                hits += 1
        assert hits > 0

    def test_functions_are_variant_specific(self, fda_lake, fda_llm):
        """A function synthesized from one formatting variant returns
        empty on documents of another variant (§3.3.2 Assumption 1)."""
        by_variant = {v: g for v, g in fda_lake.docs.groupby("variant")}
        assert {"modern", "legacy"} <= set(by_variant)
        modern = by_variant["modern"].iloc[0]
        legacy = by_variant["legacy"].iloc[0]
        chunk = fda_llm.mention_chunk("device name", modern.text)
        for salt in range(10):
            src, fn_name, _ = fda_llm.synthesize_function(
                "device name", chunk, "A", f"s{salt}")
            fn = compile_candidate(Candidate("f", "device name", "A", src, fn_name))
            if fn(modern.text) == fda_llm.gold_pairs(modern.doc_id).get("device name"):
                # a working modern-variant function must not match legacy format
                assert fn(legacy.text) != \
                    fda_llm.gold_pairs(legacy.doc_id).get("device name")
                return
        pytest.fail("no working candidate found in 10 salts")

    def test_style_b_differs_from_style_a(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[0]
        chunk = fda_llm.mention_chunk("applicant", doc.text)
        a, _, _ = fda_llm.synthesize_function("applicant", chunk, "A", "x")
        b, _, _ = fda_llm.synthesize_function("applicant", chunk, "B", "x")
        assert a != b

    def test_corruption_rate_matches_paper_band(self, fda_lake, movie_lake):
        """§3.3.2: a large share of candidates score poorly — between a
        quarter and three quarters are corrupted across hard lakes."""
        for lake in (fda_lake, movie_lake):
            llm = MockLLM(lake, "davinci")
            n = bad = 0
            for attr in lake.gold_attrs[:6]:
                doc = lake.docs.iloc[0]
                chunk = llm.mention_chunk(attr, doc.text)
                for salt in range(6):
                    for style in "AB":
                        src, fn_name, _ = llm.synthesize_function(
                            attr, chunk, style, f"t{salt}")
                        fn = compile_candidate(
                            Candidate("f", attr, style, src, fn_name))
                        gold = llm.gold_pairs(doc.doc_id).get(attr)
                        n += 1
                        bad += int(fn(doc.text) != gold)
            assert 0.2 < bad / n < 0.85

    def test_title_tag_function(self, movie_lake):
        llm = MockLLM(movie_lake, "davinci")
        doc = movie_lake.docs.iloc[0]
        gold = llm.gold_pairs(doc.doc_id)
        chunk = llm.mention_chunk("title", doc.text)
        for salt in range(10):
            src, fn_name, _ = llm.synthesize_function("title", chunk, "A", f"u{salt}")
            fn = compile_candidate(Candidate("f", "title", "A", src, fn_name))
            if fn(doc.text) == gold.get("title"):
                return  # SWDE-Plus: extracted from the <title> element
        pytest.fail("title never extracted from <title> tag")


class TestSchemaReasoning:
    def test_rerank_merges_aliases(self, movie_lake):
        llm = MockLLM(movie_lake, "davinci")
        surface = next(s for s, c in movie_lake.aliases.items()
                       if c == "director" and s != "director")
        merged, useful, tokens = llm.rerank_attributes({surface: 5, "director": 3})
        assert tokens > 0
        assert merged.get("director", 0) >= 3  # counts merged or kept

    def test_validate_rejects_garbage(self, fda_lake, fda_llm):
        ok, _ = fda_llm.validate_attribute("attr", ["", "", ""])
        assert not ok
        ok, _ = fda_llm.validate_attribute("attr", ["Class II"])
        assert ok

    def test_validate_rejects_refusals(self, fda_lake, fda_llm):
        ok, _ = fda_llm.validate_attribute("attr", [CHATBOT_REFUSAL])
        assert not ok


class TestHelpers:
    @pytest.mark.parametrize("attr,expected", [
        ("510(k) number", "get_510_k_number_field"),
        ("device name", "get_device_name_field"),
        ("x-folder", "get_x_folder_field"),
    ])
    def test_fn_name(self, attr, expected):
        assert _fn_name(attr) == expected

    def test_roll_corruption_severity(self):
        fatal = {"never", "crash", "label"}
        high = sum(_roll_corruption(0.95, "s", i) in fatal for i in range(200))
        low = sum(_roll_corruption(0.05, "s", i) in fatal for i in range(200))
        assert high > 150 and low < 50

    def test_canonical_lookup(self, fda_lake, fda_llm):
        assert fda_llm.canonical("510(K) Number:") == "510(k) number"
        assert fda_llm.canonical("totally unknown") is None
