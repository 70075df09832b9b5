"""Tests for scale-out function execution over Spark."""
import pytest

from repro.core.execute import run_functions
from repro.core.synthesis import Candidate, compile_candidate, generate_candidates


@pytest.fixture(scope="module")
def fda_cands(fda_lake, fda_llm):
    ids = sorted(fda_lake.docs.doc_id)[:3]
    cands = []
    for attr in ("applicant", "classification"):
        cands.extend(generate_candidates(fda_lake, attr, fda_llm, sample_ids=ids))
    return cands


class TestRunFunctions:
    def test_votes_shape(self, spark, fda_lake, fda_cands):
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        assert set(votes.columns) == {"doc_id", "attribute", "fid", "value"}
        assert len(votes) == fda_lake.n_docs * len(fda_cands)

    def test_every_pair_present(self, spark, fda_lake, fda_cands):
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        pairs = set(zip(votes.doc_id, votes.fid))
        assert len(pairs) == fda_lake.n_docs * len(fda_cands)

    def test_doc_subset(self, spark, fda_lake, fda_cands):
        ids = sorted(fda_lake.docs.doc_id)[:4]
        votes = run_functions(spark, fda_lake, fda_cands, doc_ids=ids).toPandas()
        assert set(votes.doc_id) == set(ids)

    def test_spark_matches_local_execution(self, spark, fda_lake, fda_cands):
        """The mapInPandas compile-per-partition path must agree exactly
        with compiling and applying the same sources on the driver."""
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        text_of = dict(zip(fda_lake.docs.doc_id, fda_lake.docs.text))
        local = {
            (d, c.fid): compile_candidate(c)(text_of[d])
            for c in fda_cands for d in fda_lake.docs.doc_id
        }
        for r in votes.itertuples():
            assert local[(r.doc_id, r.fid)] == r.value

    def test_exiting_functions_yield_empty(self, spark, fda_lake):
        """A generated function that calls sys.exit() when defined or when
        called votes "" on every document instead of failing the job."""
        cands = [
            Candidate("a::A0", "a", "A",
                      "import sys\nsys.exit(3)\ndef get_a(text):\n    return 'x'\n",
                      "get_a"),
            Candidate("b::A0", "b", "A",
                      "def get_b(text):\n    import sys\n    sys.exit(4)\n",
                      "get_b"),
        ]
        votes = run_functions(spark, fda_lake, cands).toPandas()
        assert len(votes) == fda_lake.n_docs * len(cands)
        assert set(votes.fid) == {"a::A0", "b::A0"}
        assert (votes.value == "").all()

    def test_values_are_strings(self, spark, fda_lake, fda_cands):
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        assert votes.value.map(lambda v: isinstance(v, str)).all()

    def test_vote_counts_oracle(self, spark, fda_lake, fda_cands):
        """Oracle check: non-empty vote counts per attribute computed in
        Spark equal the DuckDB aggregate over the same votes."""
        from pyspark.sql import functions as F
        from repro.oracle import assert_equivalent
        votes = run_functions(spark, fda_lake, fda_cands)
        votes_pd = votes.toPandas()
        agg = (
            votes.filter(F.col("value") != "")
            .groupBy("attribute").agg(F.count("*").alias("n_votes"))
        )
        assert_equivalent(
            agg,
            """SELECT attribute, COUNT(*) AS n_votes
               FROM votes WHERE value <> '' GROUP BY attribute""",
            votes=votes_pd,
        )
