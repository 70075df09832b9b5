"""Tests for the DuckDB correctness oracle itself."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def li(spark):
    return spark.createDataFrame(pd.DataFrame({
        "l_orderkey": [1, 1, 2, 3, 3, 3],
        "l_returnflag": ["A", "N", "N", "R", "A", "N"],
        "l_quantity": [5.0, 2.5, 7.0, 1.0, 3.0, 4.5],
    }))


@pytest.fixture(scope="module")
def orders(spark):
    return spark.createDataFrame(pd.DataFrame({
        "o_orderkey": [1, 2, 3], "o_orderpriority": ["1-URGENT", "2-HIGH", "1-URGENT"],
    }))


class TestOracle:
    def test_aggregation_equivalence(self, li):
        agg = li.groupBy("l_returnflag").agg(
            F.sum("l_quantity").alias("qty"), F.count("*").alias("cnt"))
        assert_equivalent(
            agg,
            """SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS cnt
               FROM lineitem GROUP BY l_returnflag""",
            lineitem=li,
        )

    def test_join_equivalence(self, li, orders):
        j = (li.join(orders, li.l_orderkey == orders.o_orderkey)
             .groupBy("o_orderpriority").agg(F.count("*").alias("n")))
        assert_equivalent(
            j,
            """SELECT o_orderpriority, COUNT(*) AS n
               FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
               GROUP BY o_orderpriority""",
            lineitem=li, orders=orders,
        )

    def test_detects_wrong_result(self, li):
        bad = li.groupBy("l_returnflag").agg((F.count("*") + 1).alias("cnt"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                bad,
                "SELECT l_returnflag, COUNT(*) AS cnt FROM lineitem GROUP BY l_returnflag",
                lineitem=li,
            )

    def test_detects_column_mismatch(self, li):
        agg = li.groupBy("l_returnflag").agg(F.count("*").alias("wrong_name"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                agg,
                "SELECT l_returnflag, COUNT(*) AS cnt FROM lineitem GROUP BY l_returnflag",
                lineitem=li,
            )
