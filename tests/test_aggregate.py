"""Tests for Algorithm 1: abstention inference, scoring, filtering,
top-b bucketing and the Spark weighted-vote aggregation."""
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import (AGGREGATORS, B, AggConfig, AttrPlan,
                                  aggregate_votes_spark, eval_labels,
                                  score_and_plan, vote_patterns)
from repro.core.synthesis import Candidate
from repro.llm.mock_llm import MockLLM
from repro.llm.tokens import TokenLedger
from repro.oracle import assert_equivalent
from tests.test_ws import _top_b


def _mk_cands(attr, fids):
    return [Candidate(f, attr, "A", "", "fn") for f in fids]


def _votes(rows):
    return pd.DataFrame(rows, columns=["doc_id", "attribute", "fid", "value"])


class TestAggregators:
    def test_four_configs(self):
        assert set(AGGREGATORS) == {"mv", "ws", "ws_filter", "ws_abstain_filter"}

    def test_baselines_do_not_filter(self):
        assert not AGGREGATORS["mv"].use_filter
        assert not AGGREGATORS["ws"].use_filter
        assert AGGREGATORS["ws_filter"].use_filter
        assert AGGREGATORS["ws_abstain_filter"].use_abstain


class TestEvalLabels:
    def test_labels_for_all_eval_docs(self, fda_lake):
        llm = MockLLM(fda_lake, "davinci")
        ids = sorted(fda_lake.docs.doc_id)[:5]
        led = TokenLedger()
        labels = eval_labels(fda_lake, llm, "applicant", ids, led)
        assert set(labels) == set(ids)
        assert led.by_stage["eval_labels"] > 0

    def test_refusals_mapped_to_empty(self, fda_lake):
        llm = MockLLM(fda_lake, "claude")
        ids = sorted(fda_lake.docs.doc_id)[:10]
        led = TokenLedger()
        for attr in fda_lake.gold_attrs[:4]:
            labels = eval_labels(fda_lake, llm, attr, ids, led)
            from repro.llm.mock_llm import CHATBOT_REFUSAL
            assert CHATBOT_REFUSAL not in labels.values()


class TestScoreAndPlan:
    def test_good_function_kept_bad_filtered(self):
        cands = _mk_cands("a", ["good", "bad"])
        eval_rows = []
        labels = {}
        for i in range(8):
            d = f"d{i}"
            labels[d] = f"v{i}"
            eval_rows.append((d, "a", "good", f"v{i}"))
            eval_rows.append((d, "a", "bad", "junk"))
        votes = _votes(eval_rows)
        plan = score_and_plan("a", cands, labels, votes,
                              AGGREGATORS["ws_abstain_filter"])
        assert "good" in plan.kept and "bad" not in plan.kept
        assert plan.scores["good"] > 0.9 > plan.scores["bad"]

    def test_high_e_scores_where_fired(self):
        """A high-precision/low-recall function survives in the high-e
        regime despite abstaining on most eval docs."""
        cands = _mk_cands("a", ["narrow"])
        labels = {f"d{i}": f"v{i}" for i in range(10)}
        rows = [("d0", "a", "narrow", "v0"), ("d1", "a", "narrow", "v1")]
        rows += [(f"d{i}", "a", "narrow", "") for i in range(2, 10)]
        plan = score_and_plan("a", cands, labels, _votes(rows),
                              AGGREGATORS["ws_abstain_filter"])
        assert plan.e == 1.0
        assert plan.kept == ["narrow"]  # scored only where it fired

    def test_low_e_empty_votes_count_as_correct(self):
        cands = _mk_cands("a", ["quiet"])
        labels = {f"d{i}": "" for i in range(10)}  # attribute absent
        rows = [(f"d{i}", "a", "quiet", "") for i in range(10)]
        plan = score_and_plan("a", cands, labels, _votes(rows),
                              AGGREGATORS["ws_abstain_filter"])
        assert plan.e == 0.0
        assert not plan.drop_empty
        assert plan.kept == ["quiet"]  # f1("","") == 1 on every doc

    def test_no_filter_keeps_bad(self):
        cands = _mk_cands("a", ["bad"])
        labels = {f"d{i}": f"v{i}" for i in range(5)}
        rows = [(f"d{i}", "a", "bad", "junk") for i in range(5)]
        plan = score_and_plan("a", cands, labels, _votes(rows), AGGREGATORS["mv"])
        assert plan.kept == ["bad"]

    def test_top_m_cap(self):
        fids = [f"f{i}" for i in range(15)]
        cands = _mk_cands("a", fids)
        labels = {"d0": "v"}
        rows = [("d0", "a", f, "v") for f in fids]
        plan = score_and_plan("a", cands, labels, _votes(rows), AggConfig())
        assert len(plan.kept) == 10

    def test_dead_attribute(self):
        cands = _mk_cands("a", ["f1"])
        labels = {f"d{i}": f"v{i}" for i in range(5)}
        rows = [(f"d{i}", "a", "f1", "wrong") for i in range(5)]
        plan = score_and_plan("a", cands, labels, _votes(rows),
                              AGGREGATORS["ws_abstain_filter"])
        assert not plan.alive


class TestTopB:
    """Top-B bucketing of one document's votes in the label model's input."""

    def test_keeps_top_buckets(self):
        # x x x y z w q: with B = 4, x and the smallest single-vote values
        # q, w, y stay (ranked q < w < x < y) and z's voter abstains
        assert B == 4
        fids = ["f0", "f1", "f2", "g0", "h0", "h1", "h2"]
        rows = [("d0", "a", f, v) for f, v in zip(fids, "xxxyzwq")]
        assert vote_patterns(_votes(rows), fids, True) == {
            (("f0", 2), ("f1", 2), ("f2", 2), ("g0", 3), ("h1", 1), ("h2", 0)): 1}

    def test_b_larger_than_uniques_keeps_all(self):
        rows = [("d0", "a", "a", "x"), ("d0", "a", "b", "y")]
        assert vote_patterns(_votes(rows), ["a", "b"], True) == {
            (("a", 0), ("b", 1)): 1}


class TestSparkAggregation:
    def test_weighted_vote_picks_heavier(self, spark):
        votes = spark.createDataFrame(_votes([
            ("d1", "a", "f1", "right"), ("d1", "a", "f2", "wrong"),
            ("d1", "a", "f3", "wrong"),
        ]))
        plans = {"a": AttrPlan("a", 1.0, {}, ["f1", "f2", "f3"],
                               {"f1": 5.0, "f2": 1.0, "f3": 1.0}, True)}
        out = aggregate_votes_spark(spark, votes, plans).toPandas()
        assert out.value.tolist() == ["right"]

    def test_mv_equal_weights_majority(self, spark):
        votes = spark.createDataFrame(_votes([
            ("d1", "a", "f1", "x"), ("d1", "a", "f2", "x"),
            ("d1", "a", "f3", "y"),
        ]))
        plans = {"a": AttrPlan("a", 1.0, {}, ["f1", "f2", "f3"],
                               {"f1": 1.0, "f2": 1.0, "f3": 1.0}, True)}
        out = aggregate_votes_spark(spark, votes, plans).toPandas()
        assert out.value.tolist() == ["x"]

    def test_drop_empty_abstains(self, spark):
        votes = spark.createDataFrame(_votes([
            ("d1", "a", "f1", ""), ("d1", "a", "f2", ""),
            ("d1", "a", "f3", "val"),
        ]))
        plans = {"a": AttrPlan("a", 1.0, {}, ["f1", "f2", "f3"],
                               {f: 1.0 for f in ("f1", "f2", "f3")}, True)}
        out = aggregate_votes_spark(spark, votes, plans).toPandas()
        assert out.value.tolist() == ["val"]

    def test_keep_empty_can_suppress(self, spark):
        """Low-e regime: empty votes are no-value predictions and can
        outvote a spurious extraction."""
        votes = spark.createDataFrame(_votes([
            ("d1", "a", "f1", ""), ("d1", "a", "f2", ""),
            ("d1", "a", "f3", "halluc"),
        ]))
        plans = {"a": AttrPlan("a", 0.0, {}, ["f1", "f2", "f3"],
                               {f: 1.0 for f in ("f1", "f2", "f3")}, False)}
        out = aggregate_votes_spark(spark, votes, plans).toPandas()
        assert out.empty  # "" wins the cell and is not emitted

    def test_no_alive_plans_empty_result(self, spark):
        votes = spark.createDataFrame(_votes([("d1", "a", "f1", "x")]))
        plans = {"a": AttrPlan("a", 1.0, {}, [], {}, True)}
        out = aggregate_votes_spark(spark, votes, plans).toPandas()
        assert out.empty

    def test_matches_duckdb_oracle(self, spark):
        """Oracle: the argmax-by-weight cell winner equals the DuckDB
        window-function equivalent."""
        rows = []
        for d in range(6):
            for f, v in (("f1", "x"), ("f2", "x"), ("f3", f"y{d % 2}")):
                rows.append((f"d{d}", "a", f, v))
        votes_pd = _votes(rows)
        votes = spark.createDataFrame(votes_pd)
        weights = {"f1": 2.0, "f2": 1.0, "f3": 1.5}
        plans = {"a": AttrPlan("a", 1.0, {}, list(weights), weights, True)}
        out = aggregate_votes_spark(spark, votes, plans)
        weights_pd = pd.DataFrame(
            [(f, w) for f, w in weights.items()], columns=["fid", "weight"])
        assert_equivalent(
            out.select("doc_id", "value"),
            """WITH scored AS (
                 SELECT v.doc_id, v.value, SUM(w.weight) AS s
                 FROM votes v JOIN weights w USING (fid)
                 WHERE v.value <> '' GROUP BY v.doc_id, v.value),
               ranked AS (
                 SELECT doc_id, value,
                        ROW_NUMBER() OVER (PARTITION BY doc_id
                                           ORDER BY s DESC, value ASC) AS rn
                 FROM scored)
               SELECT doc_id, value FROM ranked WHERE rn = 1""",
            votes=votes_pd, weights=weights_pd,
        )


# -- property: the Spark vote equals a plain-Python reference ----------------

_FIDS = [f"f{i}" for i in range(6)]
_DOCS = ["d0", "d1", "d2"]
# small alphabet so value and count ties occur; six values exceed B buckets
_VALUES = st.sampled_from(["", "p", "q", "r", "s", "t"])
# multiples of 0.25 sum exactly in any order, and tie often
_WEIGHTS = st.integers(-4, 8).map(lambda n: n * 0.25)


@st.composite
def _vote_sets(draw):
    plans: dict[str, AttrPlan] = {}
    rows = []
    for attr in ("a", "b"):
        kept = draw(st.lists(st.sampled_from(_FIDS), unique=True))
        weights = {f: draw(_WEIGHTS) for f in kept}
        plans[attr] = AttrPlan(attr, 0.0, {}, kept, weights, draw(st.booleans()))
        for d in _DOCS:
            for f in _FIDS:
                v = draw(st.none() | _VALUES)
                if v is not None:
                    rows.append((d, attr, f, v))
    return rows, plans


def _reference_vote(rows, plans) -> set[tuple[str, str, str]]:
    cells: dict[tuple[str, str], dict[str, str]] = {}
    for d, a, f, v in rows:
        p = plans[a]
        if f not in p.kept or (p.drop_empty and v == ""):
            continue
        cells.setdefault((d, a), {})[f] = v
    out = set()
    for (d, a), votes in cells.items():
        score: dict[str, float] = {}
        for f, v in _top_b(votes, B).items():
            score[v] = score.get(v, 0.0) + plans[a].weights[f]
        winner = min(score, key=lambda v: (-score[v], v))
        if winner:
            out.add((d, a, winner))
    return out


class TestSparkVoteProperty:
    @settings(max_examples=25, deadline=None)
    @given(case=_vote_sets())
    def test_matches_python_reference(self, spark, case):
        rows, plans = case
        votes = spark.createDataFrame(
            rows, schema="doc_id string, attribute string, fid string, value string")
        out = aggregate_votes_spark(spark, votes, plans).toPandas()
        got = set(zip(out.doc_id, out.attribute, out.value))
        assert len(got) == len(out)
        assert got == _reference_vote(rows, plans)
