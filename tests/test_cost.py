"""Tests for the Figure-3 cost model and Table-3 cost helpers."""
import pytest

from repro.core.cost import CostModel, per_10k_docs


class TestCrossovers:
    def test_crossover_docs_matches_paper(self):
        """§3.2.2: crossover at ~40 documents for 10 attributes."""
        assert CostModel().crossover_docs(10) == pytest.approx(40)

    def test_crossover_attrs_matches_paper(self):
        """§3.2.2: crossover at ~2,500 attributes for 10k documents."""
        assert CostModel().crossover_attrs(10_000) == pytest.approx(2500)

    def test_costs_equal_at_crossover(self):
        m = CostModel()
        n = m.crossover_docs(10)
        assert m.direct_tokens(int(n), 10) == pytest.approx(m.code_tokens(int(n), 10))


class TestAsymptotics:
    def test_direct_linear_in_docs(self):
        m = CostModel()
        assert m.direct_tokens(20_000) == 2 * m.direct_tokens(10_000)

    def test_code_constant_in_docs(self):
        m = CostModel()
        assert m.code_tokens(100, 10) == m.code_tokens(1_000_000, 10)

    def test_code_linear_in_attrs(self):
        m = CostModel()
        assert m.code_tokens(100, 20) == 2 * m.code_tokens(100, 10)

    def test_direct_constant_in_attrs(self):
        m = CostModel()
        assert m.direct_tokens(100, 10) == m.direct_tokens(100, 1000)

    def test_code_cheaper_beyond_crossover(self):
        m = CostModel()
        assert m.code_tokens(10_000, 10) < m.direct_tokens(10_000, 10)

    def test_direct_cheaper_below_crossover(self):
        m = CostModel()
        assert m.direct_tokens(10, 10) < m.code_tokens(10, 10)


class TestHelpers:
    def test_per_10k_docs(self):
        assert per_10k_docs(1000, 10) == 1_000_000

    def test_per_10k_zero_docs(self):
        assert per_10k_docs(1000, 0) == 0
