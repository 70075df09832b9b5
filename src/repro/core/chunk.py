"""Context-window chunking (§3.1 "Managing long documents").

Modern LLMs process a bounded context window; Evaporate splits each raw
document into chunks that fit, and applies the prompt to each chunk in
turn. We chunk on line boundaries at ~CHUNK_TOKENS tokens.
"""
from __future__ import annotations

from repro.llm.tokens import count_tokens

CHUNK_TOKENS = 1000


def split_chunks(text: str) -> list[str]:
    """Split ``text`` into line-aligned chunks of <= ``CHUNK_TOKENS``."""
    if count_tokens(text) <= CHUNK_TOKENS:
        return [text]
    chunks: list[str] = []
    cur: list[str] = []
    cur_tokens = 0
    for line in text.split("\n"):
        t = count_tokens(line) + 1
        if cur and cur_tokens + t > CHUNK_TOKENS:
            chunks.append("\n".join(cur))
            cur, cur_tokens = [], 0
        # a single line longer than the window is split hard
        while t > CHUNK_TOKENS:
            approx_chars = CHUNK_TOKENS * 4
            chunks.append(line[:approx_chars])
            line = line[approx_chars:]
            t = count_tokens(line) + 1
        cur.append(line)
        cur_tokens += t
    if cur:
        chunks.append("\n".join(cur))
    return chunks
