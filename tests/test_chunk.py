"""Unit tests for context-window chunking."""
from repro.core.chunk import CHUNK_TOKENS, split_chunks
from repro.llm.tokens import count_tokens


class TestSplitChunks:
    def test_short_text_single_chunk(self):
        assert split_chunks("hello world") == ["hello world"]

    def test_chunks_fit_window(self):
        text = "\n".join(f"line {i} " + "word " * 30 for i in range(200))
        for ch in split_chunks(text):
            assert count_tokens(ch) <= CHUNK_TOKENS + 40  # small slack for joins

    def test_all_lines_preserved(self):
        lines = [f"line-{i}" for i in range(5000)]
        text = "\n".join(lines)
        rejoined = "\n".join(split_chunks(text))
        for line in lines:
            assert line in rejoined

    def test_line_not_split_across_chunks(self):
        text = "\n".join(f"attribute-{i}: value-{i}" for i in range(3000))
        for ch in split_chunks(text):
            for line in ch.split("\n"):
                if line.startswith("attribute-"):
                    assert line.count(":") == 1  # label and value together

    def test_oversized_single_line_is_hard_split(self):
        text = "x" * 20_000  # 5000 tokens on one line
        chunks = split_chunks(text)
        assert len(chunks) >= 5
        assert all(count_tokens(c) <= CHUNK_TOKENS + 1 for c in chunks)

    def test_empty_text(self):
        assert split_chunks("") == [""]

    def test_deterministic(self):
        text = "\n".join("word " * 50 for _ in range(300))
        assert split_chunks(text) == split_chunks(text)
