"""Tests for Pair F1, Text F1 and schema F1@k — including a DuckDB oracle
check of Pair F1's tuple counts."""
import duckdb
import pandas as pd
import pytest

from repro.core.metrics import (PRF, _tuples, closed_text_f1, pair_f1,
                                schema_f1_at_k, text_f1_strings)


def _df(rows):
    return pd.DataFrame(rows, columns=["doc_id", "attribute", "value"])


# Pair F1's normalization in DuckDB SQL; trim() strips spaces only.
_CANON_SQL = r"""
    SELECT DISTINCT doc_id, lower(trim(attribute)) AS attribute,
           trim(regexp_replace(value, '[ \t\n\x0b\f\r]+', ' ', 'g')) AS value
    FROM {} WHERE value IS NOT NULL AND length(trim(value)) > 0"""


class TestPRF:
    def test_from_counts(self):
        prf = PRF.from_counts(5, 10, 20)
        assert prf.precision == 0.5 and prf.recall == 0.25
        assert prf.f1 == pytest.approx(1 / 3)

    def test_zero_denominators(self):
        assert PRF.from_counts(0, 0, 0).f1 == 0.0


class TestPairF1:
    def test_perfect(self):
        rows = [("d1", "a", "x"), ("d2", "b", "y")]
        prf = pair_f1(_df(rows), _df(rows))
        assert prf.f1 == 1.0

    def test_no_partial_credit_on_value(self):
        pred = [("d1", "a", "x extra")]
        gold = [("d1", "a", "x")]
        assert pair_f1(_df(pred), _df(gold)).f1 == 0.0

    def test_attribute_name_must_match(self):
        pred = [("d1", "director details", "x")]
        gold = [("d1", "director", "x")]
        assert pair_f1(_df(pred), _df(gold)).f1 == 0.0

    def test_attribute_case_insensitive(self):
        pred = [("d1", "Director", "x")]
        gold = [("d1", "director", "x")]
        assert pair_f1(_df(pred), _df(gold)).f1 == 1.0

    def test_empty_prediction_dropped(self):
        pred = [("d1", "a", ""), ("d1", "b", "y")]
        gold = [("d1", "b", "y")]
        assert pair_f1(_df(pred), _df(gold)).f1 == 1.0

    def test_precision_recall_split(self):
        pred = [("d1", "a", "x"), ("d1", "junk", "z")]
        gold = [("d1", "a", "x"), ("d1", "b", "y")]
        prf = pair_f1(_df(pred), _df(gold))
        assert prf.precision == 0.5 and prf.recall == 0.5

    def test_whitespace_normalized(self):
        pred = [("d1", "a", "x   y")]
        gold = [("d1", "a", "x y")]
        assert pair_f1(_df(pred), _df(gold)).f1 == 1.0

    def test_duplicates_deduped(self):
        pred = [("d1", "a", "x"), ("d1", "a", "x")]
        gold = [("d1", "a", "x")]
        prf = pair_f1(_df(pred), _df(gold))
        assert prf.precision == 1.0

    def test_counts_match_duckdb(self):
        """Oracle: the (correct, pred, gold) tuple counts equal the DuckDB
        SQL with the same normalization, deduplicated."""
        pred = _df([("d1", "a", "x"), ("d1", "a", "x"), ("d1", " A ", "x"),
                    ("d1", "b", "wrong"), ("d2", "a", "x2\t\n y "),
                    ("d2", "c", ""), ("d2", "c", "  "), ("d2", "d", None),
                    ("d2", "e", "\t"), ("d3", "junk", "j")])
        gold = _df([("d1", "a", "x"), ("d1", "b", "y"), ("d2", "a", "x2 y"),
                    ("d2", "d", "z"), ("d2", "e", ""), ("d3", "f", None)])
        con = duckdb.connect()
        try:
            con.register("pred_raw", pred)
            con.register("gold_raw", gold)
            con.execute(f"CREATE VIEW p AS {_CANON_SQL.format('pred_raw')}")
            con.execute(f"CREATE VIEW g AS {_CANON_SQL.format('gold_raw')}")
            want = con.execute(
                """SELECT (SELECT count(*) FROM p JOIN g USING (doc_id, attribute, value)),
                          (SELECT count(*) FROM p), (SELECT count(*) FROM g)""").fetchone()
        finally:
            con.close()
        p, g = _tuples(pred), _tuples(gold)
        assert (len(p & g), len(p), len(g)) == want == (2, 5, 4)
        assert pair_f1(pred, gold) == PRF.from_counts(*want)


class TestTextF1:
    @pytest.mark.parametrize("pred,gold,expected", [
        ("exact match", "exact match", 1.0),
        ("", "", 1.0),
        ("", "value", 0.0),
        ("value", "", 0.0),
        ("completely different", "other thing", 0.0),
    ])
    def test_cases(self, pred, gold, expected):
        assert text_f1_strings(pred, gold) == pytest.approx(expected)

    def test_partial_overlap(self):
        f1 = text_f1_strings("new york city", "new york")
        assert 0.7 < f1 < 0.9  # 2 common tokens: p=2/3, r=1 -> 0.8

    def test_case_insensitive(self):
        assert text_f1_strings("Class II", "class ii") == 1.0

    def test_punctuation_tokenized(self):
        assert text_f1_strings("K123456", "k123456") == 1.0

    def test_none_handled(self):
        assert text_f1_strings(None, None) == 1.0
        assert text_f1_strings(None, "x") == 0.0

    def test_repeated_tokens_counted_once(self):
        assert text_f1_strings("a a a", "a") < 1.0


class TestClosedTextF1:
    def test_perfect_grid(self):
        pred = pd.DataFrame([("d1", "a", "x")], columns=["doc_id", "attribute", "value"])
        gold = pred.copy()
        assert closed_text_f1(pred, gold, ["a"], ["d1"]) == 1.0

    def test_missing_cell_counts_against(self):
        pred = pd.DataFrame(columns=["doc_id", "attribute", "value"])
        gold = pd.DataFrame([("d1", "a", "x")], columns=["doc_id", "attribute", "value"])
        assert closed_text_f1(pred, gold, ["a"], ["d1"]) == 0.0

    def test_both_absent_scores_one(self):
        pred = pd.DataFrame(columns=["doc_id", "attribute", "value"])
        gold = pd.DataFrame(columns=["doc_id", "attribute", "value"])
        assert closed_text_f1(pred, gold, ["a"], ["d1"]) == 1.0

    def test_averages_over_grid(self):
        pred = pd.DataFrame([("d1", "a", "x")], columns=["doc_id", "attribute", "value"])
        gold = pd.DataFrame([("d1", "a", "x"), ("d1", "b", "y")],
                            columns=["doc_id", "attribute", "value"])
        assert closed_text_f1(pred, gold, ["a", "b"], ["d1"]) == 0.5


class TestSchemaF1:
    def test_perfect(self):
        assert schema_f1_at_k(["a", "b"], ["a", "b"]) == 1.0

    def test_truncates_at_k(self):
        assert schema_f1_at_k(["a", "b", "c"], ["a", "b"]) == 1.0

    def test_partial(self):
        assert schema_f1_at_k(["a", "x"], ["a", "b"]) == 0.5

    def test_case_insensitive(self):
        assert schema_f1_at_k(["A"], ["a"]) == 1.0

    def test_empty_pred(self):
        assert schema_f1_at_k([], ["a"]) == 0.0
