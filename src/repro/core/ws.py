"""Weak-supervision label model for open-ended extraction votes.

Implements the label-model family of Ratner et al. / Fu et al. in the
one-coin Dawid-Skene form: each function j has a latent accuracy p_j
(probability its non-abstaining vote equals the true value); the paper's
Appendix-D constraint — equal class-conditional accuracies — is exactly
the one-coin assumption, needed because the "classes" (candidate value
strings) differ per document.

Fitting is EM over the collected vote matrix (driver-side: |docs| x
|functions| is tiny after Algorithm 1's top-m filtering). Inference is
an accuracy-weighted log-odds vote, applied at scale as a Spark
join/groupBy in ``aggregate.py``.

Table 4's unsupervised MV baseline is the same Spark vote with every
weight set to 1.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

B = 4  # vote buckets per document: the label model's number of classes
N_ITER = 10  # EM iterations


@dataclass
class LabelModel:
    """Learned per-function accuracies + vote weights."""

    accuracies: dict[str, float]

    def weight(self, fid: str) -> float:
        p = self.accuracies.get(fid, 0.5)
        return math.log(p * (B - 1) / (1 - p))


def _clip(p: float, lo: float = 0.05, hi: float = 0.95) -> float:
    return min(hi, max(lo, p))


def fit_label_model(
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

