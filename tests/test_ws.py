"""Tests for the one-coin Dawid-Skene label model.

The pattern fit is checked against the per-document EM it replaced,
kept below verbatim (with the per-document vote input it was fed) as the
reference.
"""
import math
from collections import Counter

import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregate import vote_patterns
from repro.core.ws import B, N_ITER, LabelModel, _clip, fit_label_model


# -- reference: the per-document EM -------------------------------------------

def _top_b(votes_for_doc: dict[str, str], b: int) -> dict[str, str]:
    """Keep votes in the doc's top-b value buckets; others abstain."""
    counts: dict[str, int] = {}
    for v in votes_for_doc.values():
        counts[v] = counts.get(v, 0) + 1
    keep = set(sorted(counts, key=lambda v: (-counts[v], v))[:b])
    return {f: v for f, v in votes_for_doc.items() if v in keep}


def reference_votes_by_doc(votes: pd.DataFrame, kept: list[str], drop_empty: bool):
    """Per-document vote dicts of the kept functions, abstentions and
    top-b applied."""
    by_doc: dict[str, dict[str, str]] = {}
    for r in votes[votes.fid.isin(kept)].itertuples():
        val = r.value
        if not val and drop_empty:
            continue  # abstention
        by_doc.setdefault(r.doc_id, {})[r.fid] = val
    return {d: _top_b(v, B) for d, v in by_doc.items()}


def reference_fit_label_model(
    votes: dict[str, dict[str, str]], fids: list[str]
) -> LabelModel:
    """EM fit of one-coin accuracies from per-doc vote dicts.

    ``votes[doc][fid] = value`` — abstentions are simply absent keys.
    Initialization is agreement-with-majority; iterations re-estimate the
    latent label as the accuracy-weighted vote and the accuracies as
    agreement with that label.
    """
    acc = {f: 0.7 for f in fids}
    if not votes:
        return LabelModel(acc)
    for _ in range(N_ITER):
        # E-step: current best guess per doc via weighted vote
        guesses: dict[str, str] = {}
        for doc, v in votes.items():
            if not v:
                continue
            scores: Counter = Counter()
            for fid, val in v.items():
                p = _clip(acc.get(fid, 0.5))
                scores[val] += math.log(p * (B - 1) / (1 - p))
            guesses[doc] = max(sorted(scores), key=lambda k: scores[k])
        # M-step: per-function agreement with the guesses
        for fid in fids:
            n_tot = n_hit = 0
            for doc, v in votes.items():
                if fid in v and doc in guesses:
                    n_tot += 1
                    n_hit += int(v[fid] == guesses[doc])
            if n_tot:
                acc[fid] = _clip(n_hit / n_tot)
    return LabelModel({f: _clip(p) for f, p in acc.items()})


# -- helpers -------------------------------------------------------------------

def _frame(votes: dict[str, dict[str, str]]) -> pd.DataFrame:
    return pd.DataFrame(
        [(d, "a", f, val) for d, v in votes.items() for f, val in v.items()],
        columns=["doc_id", "attribute", "fid", "value"])


def fit(votes: dict[str, dict[str, str]], fids: list[str]) -> LabelModel:
    """Fit on ``vote_patterns`` input, as ``score_and_plan`` does (empty
    votes abstain)."""
    return fit_label_model(vote_patterns(_frame(votes), fids, True), fids)


def synthetic_votes(n_docs=60, good_acc=0.9, bad_acc=0.2):
    """Two good functions, one adversarial, one random-ish."""
    from repro.util import hash_uniform
    votes, truth = {}, {}
    for i in range(n_docs):
        d = f"d{i}"
        y = f"val-{i % 5}"
        truth[d] = y
        v = {}
        for fid, acc in (("good1", good_acc), ("good2", good_acc), ("bad", bad_acc)):
            if hash_uniform("ws-test", fid, d) < acc:
                v[fid] = y
            else:
                v[fid] = f"wrong-{fid}-{i % 3}"
        votes[d] = v
    return votes, truth


class TestFitLabelModel:
    def test_good_functions_get_higher_accuracy(self):
        votes, _ = synthetic_votes()
        model = fit(votes, ["good1", "good2", "bad"])
        assert model.accuracies["good1"] > model.accuracies["bad"]
        assert model.accuracies["good2"] > model.accuracies["bad"]

    def test_weights_ordered_like_accuracies(self):
        votes, _ = synthetic_votes()
        model = fit(votes, ["good1", "good2", "bad"])
        assert model.weight("good1") > model.weight("bad")

    def test_weighted_vote_beats_bad_function(self):
        votes, truth = synthetic_votes(good_acc=0.75, bad_acc=0.1)
        model = fit(votes, ["good1", "good2", "bad"])
        # inference: weighted vote per doc
        correct = 0
        for d, v in votes.items():
            scores = {}
            for fid, val in v.items():
                scores[val] = scores.get(val, 0) + model.weight(fid)
            pred = max(sorted(scores), key=lambda k: scores[k])
            correct += int(pred == truth[d])
        assert correct / len(votes) > 0.8

    def test_empty_votes(self):
        model = fit({}, ["f1"])
        assert model.accuracies["f1"] == pytest.approx(0.7)

    def test_abstentions_are_absent_keys(self):
        votes = {"d1": {"f1": "x"}, "d2": {}}  # f1 abstains on d2
        model = fit(votes, ["f1", "f2"])
        assert 0.05 <= model.accuracies["f1"] <= 0.95

    def test_deterministic(self):
        votes, _ = synthetic_votes()
        a = fit(votes, ["good1", "good2", "bad"]).accuracies
        b = fit(votes, ["good1", "good2", "bad"]).accuracies
        assert a == b

    def test_accuracies_clipped(self):
        votes = {f"d{i}": {"f1": "same"} for i in range(10)}
        model = fit(votes, ["f1"])
        assert model.accuracies["f1"] <= 0.95

    def test_one_row_per_pattern(self):
        """Documents that vote alike share one pattern row."""
        votes, _ = synthetic_votes(n_docs=600)
        patterns = vote_patterns(_frame(votes), ["good1", "good2", "bad"], True)
        assert sum(patterns.values()) == 600
        assert len(patterns) <= 8  # one per agree/disagree combination of 3 voters


# -- property: the pattern fit equals the per-document EM ---------------------

_FIDS = [f"f{i}" for i in range(6)]
_DOCS = [f"d{i}" for i in range(8)]
# small alphabet so value and count ties occur; six voters can exceed B values
_VALUES = st.sampled_from(["", "p", "q", "r", "s", "t"])


@st.composite
def _vote_sets(draw):
    kept = draw(st.lists(st.sampled_from(_FIDS), unique=True))
    rows = []
    for d in draw(st.lists(st.sampled_from(_DOCS), unique=True)):
        # rows arrive in any fid order, as candidate order is not fid order
        for f in draw(st.permutations(_FIDS)):
            v = draw(st.none() | _VALUES)
            if v is not None:
                rows.append((d, "a", f, v))
    return rows, kept, draw(st.booleans())


def _ties_and_wide_docs():
    """A two-two value tie, a single voter, an empty-only document and a
    document with more than B distinct values."""
    rows = [("d0", "a", "f0", "p"), ("d0", "a", "f1", "p"),
            ("d0", "a", "f2", "q"), ("d0", "a", "f3", "q"),
            ("d1", "a", "f4", "r"), ("d2", "a", "f5", "")]
    rows += [("d3", "a", f, v) for f, v in zip(_FIDS, ["", "p", "q", "r", "s", "t"])]
    return rows


class TestPatternFitMatchesPerDocument:
    @settings(max_examples=25, deadline=None)
    @given(case=_vote_sets())
    @example(case=([], ["f0"], True))
    @example(case=(_ties_and_wide_docs(), _FIDS, True))
    @example(case=(_ties_and_wide_docs(), _FIDS, False))
    def test_accuracies_equal(self, case):
        rows, kept, drop_empty = case
        votes = pd.DataFrame(rows, columns=["doc_id", "attribute", "fid", "value"])
        got = fit_label_model(vote_patterns(votes, kept, drop_empty), kept)
        want = reference_fit_label_model(
            reference_votes_by_doc(votes, kept, drop_empty), kept)
        assert got.accuracies == want.accuracies


class TestLabelModelWeight:
    def test_unknown_function_neutral(self):
        m = LabelModel({})
        assert m.weight("unseen") == pytest.approx(
            m.weight("unseen"))  # stable
        assert m.weight("unseen") > 0  # 0.5 acc with B=4 -> log(3)

    def test_higher_accuracy_higher_weight(self):
        m = LabelModel({"a": 0.9, "b": 0.6})
        assert m.weight("a") > m.weight("b")


class TestClip:
    def test_bounds(self):
        assert _clip(0.0) == 0.05
        assert _clip(1.0) == 0.95
        assert _clip(0.5) == 0.5
