"""Tests for the one-coin Dawid-Skene label model and MV baseline."""
import pytest

from repro.core.ws import LabelModel, _clip, fit_label_model


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
        model = fit_label_model(votes, ["good1", "good2", "bad"])
        assert model.accuracies["good1"] > model.accuracies["bad"]
        assert model.accuracies["good2"] > model.accuracies["bad"]

    def test_weights_ordered_like_accuracies(self):
        votes, _ = synthetic_votes()
        model = fit_label_model(votes, ["good1", "good2", "bad"])
        assert model.weight("good1") > model.weight("bad")

    def test_weighted_vote_beats_bad_function(self):
        votes, truth = synthetic_votes(good_acc=0.75, bad_acc=0.1)
        model = fit_label_model(votes, ["good1", "good2", "bad"])
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
        model = fit_label_model({}, ["f1"])
        assert model.accuracies["f1"] == pytest.approx(0.7)

    def test_abstentions_are_absent_keys(self):
        votes = {"d1": {"f1": "x"}, "d2": {}}  # f1 abstains on d2
        model = fit_label_model(votes, ["f1", "f2"])
        assert 0.05 <= model.accuracies["f1"] <= 0.95

    def test_deterministic(self):
        votes, _ = synthetic_votes()
        a = fit_label_model(votes, ["good1", "good2", "bad"]).accuracies
        b = fit_label_model(votes, ["good1", "good2", "bad"]).accuracies
        assert a == b

    def test_accuracies_clipped(self):
        votes = {f"d{i}": {"f1": "same"} for i in range(10)}
        model = fit_label_model(votes, ["f1"])
        assert model.accuracies["f1"] <= 0.95


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

