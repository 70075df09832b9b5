"""Weak-supervision label model for open-ended extraction votes.

Implements the label-model family of Ratner et al. / Fu et al. in the
one-coin Dawid-Skene form: each function j has a latent accuracy p_j
(probability its non-abstaining vote equals the true value); the paper's
Appendix-D constraint — equal class-conditional accuracies — is exactly
the one-coin assumption, needed because the "classes" (candidate value
strings) differ per document.

EM reads a document only through its *agreement pattern*: which
functions vote and how their values compare. Fitting therefore runs on
the driver over ``(pattern, n_docs)`` rows, one E-step guess per pattern
and M-step counts weighted by ``n_docs``, so its cost is O(#patterns)
whatever the lake size (``aggregate.vote_patterns`` builds the rows).
Inference is an accuracy-weighted log-odds vote, applied at scale as a
Spark join/groupBy in ``aggregate.py``.

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


# (fid, rank): rank orders the value among the document's voted values
Pattern = tuple[tuple[str, int], ...]


def fit_label_model(patterns: dict[Pattern, int], fids: list[str]) -> LabelModel:
    """EM fit of one-coin accuracies from agreement-pattern counts.

    ``patterns[pattern] = n_docs``. A pattern lists the ``(fid, rank)`` of
    a document's non-abstaining votes (at least one), sorted by fid;
    ``rank`` is the position of the fid's value among the document's
    distinct values in string order, so equal ranks are agreeing votes
    and the lowest rank is the smallest value. Initialization is
    agreement-with-majority; iterations re-estimate the latent label as
    the accuracy-weighted vote (smallest value on ties) and the
    accuracies as agreement with that label, each pattern's guess
    counting once per document.
    """
    acc = {f: 0.7 for f in fids}
    if not patterns:
        return LabelModel(acc)
    for _ in range(N_ITER):
        n_tot: Counter = Counter()
        n_hit: Counter = Counter()
        for pattern, n in patterns.items():
            # E-step: current best guess for the pattern via weighted vote
            scores: Counter = Counter()
            for fid, rank in pattern:
                p = _clip(acc.get(fid, 0.5))
                scores[rank] += math.log(p * (B - 1) / (1 - p))
            guess = max(sorted(scores), key=lambda k: scores[k])
            # M-step counts: per-function agreement with the guess
            for fid, rank in pattern:
                n_tot[fid] += n
                n_hit[fid] += n * (rank == guess)
        for fid in fids:
            if n_tot[fid]:
                acc[fid] = _clip(n_hit[fid] / n_tot[fid])
    return LabelModel({f: _clip(p) for f, p in acc.items()})
