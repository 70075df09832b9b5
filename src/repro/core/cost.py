"""Analytic cost model behind Figure 3 and the Table 3 cost columns.

The paper's asymptotic argument: Direct processes O(n_docs) tokens while
code synthesis processes O(n_attrs) tokens (a fixed per-attribute budget
for prompts + D_eval labels, independent of lake size). At 10k tokens
per document the paper quotes crossovers at ~40 documents (10
attributes) and ~2,500 attributes (10k documents).
"""
from __future__ import annotations

from dataclasses import dataclass

TOKENS_PER_DOC_PAPER = 10_000
# Per-attribute fixed budget: ~10 synthesis prompts (chunk + template +
# generated code) plus ~10 D_eval label extractions. Matches the paper's
# quoted crossovers exactly (40 docs, 2500 attrs).
TOKENS_PER_ATTR = 40_000


@dataclass(frozen=True)
class CostModel:
    """Token-cost curves for the two implementation families."""

    tokens_per_doc: int = TOKENS_PER_DOC_PAPER
    tokens_per_attr: int = TOKENS_PER_ATTR

    def direct_tokens(self, n_docs: int, n_attrs: int = 10) -> int:
        """Direct: every doc through the LLM; attr count is free (one
        prompt extracts every attribute in context)."""
        return n_docs * self.tokens_per_doc

    def code_tokens(self, n_docs: int, n_attrs: int = 10) -> int:
        """Code synthesis: fixed per-attribute budget; doc count is free."""
        return n_attrs * self.tokens_per_attr

    def crossover_docs(self, n_attrs: int = 10) -> float:
        """Documents above which code synthesis is cheaper (paper: ~40)."""
        return n_attrs * self.tokens_per_attr / self.tokens_per_doc

    def crossover_attrs(self, n_docs: int = 10_000) -> float:
        """Attributes above which Direct is cheaper (paper: ~2,500)."""
        return n_docs * self.tokens_per_doc / self.tokens_per_attr


def per_10k_docs(measured_tokens: int, n_docs_measured: int) -> int:
    """Extrapolate a measured linear-in-docs token count to 10k docs."""
    if n_docs_measured <= 0:
        return 0
    return round(measured_tokens * 10_000 / n_docs_measured)

