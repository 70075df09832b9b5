"""Benchmarks: regenerate each evaluation table and check the paper's shape.

One benchmark group per table; each check asserts the qualitative result
the paper reports for that table.
"""
import pytest

from repro.harness import tables


def _table1(df):
    avg = df[df.source == "Average"].iloc[0]
    # ClosedIE well above OpenIE, both substantial
    assert avg.closed_f1 > avg.open_f1 > 40


def _table2(df):
    movie = df[df.benchmark == "swde_movie"].set_index("system")
    # Code+ beats Code on OpenIE; Direct leads ClosedIE
    assert movie.loc["EVAPORATE-CODE+", "open"] > movie.loc["EVAPORATE-CODE", "open"]


def _table3(df):
    avg = df[df.source == "Average"].iloc[0]
    # the headline claims: Code+ wins on quality AND pays orders of
    # magnitude fewer tokens
    assert avg.code_f1 > avg.direct_f1
    assert avg.reduction > 25


def _table4(df):
    avg = df[df.source == "Average"].iloc[0]
    # Algorithm 1's filtering+abstention beat raw MV/WS
    assert avg.ws_abstain_filter >= avg.ws_filter - 1
    assert avg.ws_filter > avg.mv


def _table5(df):
    by_model = df.set_index("model")
    # jumbo collapses on FDA Code+ while enron survives; gpt4 stays
    # competitive
    assert by_model.loc["jumbo", "code_fda"] < 15
    assert by_model.loc["jumbo", "code_enron"] > 60
    assert by_model.loc["gpt4", "code_fda"] > 40


def _table6(df):
    # span extractors land mid-range, well below Evaporate ClosedIE
    assert df.closed_f1.between(20, 80).all()


def _table7(df):
    avg = df[df.source == "Average"].iloc[0]
    # the LLM F is a strong closed extractor (avg 79.9 F1)
    assert avg.f1 > 60


CHECKS = {
    "table1": _table1, "table2": _table2, "table3": _table3, "table4": _table4,
    "table5": _table5, "table6": _table6, "table7": _table7,
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.benchmark(group=name)) for name in CHECKS
])
def test_bench_table(benchmark, spark, bench_cfg, name):
    df = benchmark.pedantic(getattr(tables, name), args=(spark, bench_cfg),
                            rounds=1, iterations=1)
    CHECKS[name](df)
    print("\n" + tables.to_markdown(df))
