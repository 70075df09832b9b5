"""Token accounting for the simulated LLM.

The paper measures cost as "number of tokens processed by the LLM"
(prompt + completion) because wall-clock/dollar cost are proportional to
it. We use the standard ~4-characters-per-token approximation, which is
deterministic and close enough to BPE for *relative* cost comparisons
(Table 3's reduction factors, Figure 3's crossovers).
"""
from __future__ import annotations

# Dollar rate used in Table 3 of the paper (text-davinci-003).
USD_PER_1K_TOKENS = 0.02


def count_tokens(text: str) -> int:
    """Approximate BPE token count of ``text`` (~4 chars/token, >=1)."""
    if not text:
        return 0
    return max(1, round(len(text) / 4))


def usd(tokens: int) -> float:
    """Dollar cost of processing ``tokens`` at the davinci rate."""
    return tokens / 1000.0 * USD_PER_1K_TOKENS


class TokenLedger:
    """Accumulates tokens processed by the LLM, by pipeline stage.

    One ledger per Evaporate run. Stages mirror the paper's cost
    decomposition: ``direct``, ``schema``, ``rerank``, ``synthesis``,
    ``eval_labels``, ``validation``, ``closed``.
    """

    def __init__(self) -> None:
        self.by_stage: dict[str, int] = {}

    def add(self, stage: str, tokens: int) -> None:
        self.by_stage[stage] = self.by_stage.get(stage, 0) + int(tokens)

    @property
    def total(self) -> int:
        return sum(self.by_stage.values())

    def merge(self, other: "TokenLedger") -> "TokenLedger":
        for k, v in other.by_stage.items():
            self.add(k, v)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TokenLedger(total={self.total}, by_stage={self.by_stage})"
