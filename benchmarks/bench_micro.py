"""Micro-benchmarks for the scale-out pieces.

``test_bench_function_execution`` checks the paper's §4.4.1 runtime
claim: synthesized functions process documents in fractions of a
millisecond (they cite 0.00025s per function per document on 2 CPUs).
"""
import time

import pandas as pd
import pytest

from repro.core.aggregate import vote_patterns
from repro.core.execute import run_functions
from repro.core.metrics import pair_f1
from repro.core.synthesis import compile_candidate, generate_candidates
from repro.core.ws import fit_label_model
from repro.lakes import registry
from repro.llm.mock_llm import MockLLM


@pytest.fixture(scope="module")
def fda_lake():
    return registry.make_lake("fda", 40)


@pytest.fixture(scope="module")
def fda_candidates(fda_lake):
    ids = sorted(fda_lake.docs.doc_id)[:5]
    llm = MockLLM(fda_lake)
    cands = []
    for attr in fda_lake.gold_attrs[:4]:
        cands.extend(generate_candidates(fda_lake, attr, llm, sample_ids=ids))
    return cands


@pytest.mark.benchmark(group="micro")
def test_bench_function_execution_local(benchmark, fda_lake, fda_candidates):
    """Driver-side function throughput — paper claims ~0.25ms/fn/doc."""
    fns = [compile_candidate(c) for c in fda_candidates]
    texts = list(fda_lake.docs.text)
    seconds: list[float] = []  # own timer: benchmark.stats is None when disabled

    def run():
        t0 = time.perf_counter()
        n = sum(1 for fn in fns for t in texts if fn(t) is not None)
        seconds.append(time.perf_counter() - t0)
        return n

    n = benchmark(run)
    n_applications = len(fns) * len(texts)
    assert n == n_applications
    per_app = sum(seconds) / len(seconds) / n_applications
    assert per_app < 0.005  # well under 5ms per function-document

@pytest.mark.benchmark(group="micro")
def test_bench_function_execution_spark(benchmark, spark, fda_lake, fda_candidates):
    def run():
        return run_functions(spark, fda_lake, fda_candidates).count()

    n = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n == fda_lake.n_docs * len(fda_candidates)


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("n_docs", [500, 4000])
def test_bench_ws_fit(benchmark, n_docs):
    """Label-model fit as ``score_and_plan`` runs it: agreement patterns
    from the vote frame, then EM over the (pattern, count) rows."""
    from repro.util import hash_uniform
    fids = [f"f{j}" for j in range(10)]
    votes = pd.DataFrame(
        [(f"d{i}", "a", f"f{j}",
          f"v{i}" if hash_uniform("b", i, j) < 0.7 else f"w{j}")
         for i in range(n_docs) for j in range(10)],
        columns=["doc_id", "attribute", "fid", "value"])

    def run():
        return fit_label_model(vote_patterns(votes, fids, True), fids)

    model = benchmark(run)
    assert len(model.accuracies) == 10


@pytest.mark.benchmark(group="micro")
def test_bench_pair_f1(benchmark, fda_lake):
    gold = fda_lake.gold
    pred = gold.sample(frac=0.8, random_state=0)

    def run():
        return pair_f1(pred, gold).f1

    f1 = benchmark(run)
    assert 0.8 < f1 <= 1.0
