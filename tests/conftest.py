"""Shared fixtures: small deterministic lakes + cached pipeline artifacts.

Lakes are tiny (12-30 docs) so the full suite stays fast; the harness
jobs/benchmarks run the bigger configurations.
"""
from __future__ import annotations

import pytest

from repro.lakes import registry
from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM

SMALL_N = 24


@pytest.fixture(scope="session")
def fda_lake() -> DataLake:
    return registry.make_lake("fda", SMALL_N)


@pytest.fixture(scope="session")
def fda_llm(fda_lake) -> MockLLM:
    return MockLLM(fda_lake, "davinci")


@pytest.fixture(scope="session")
def enron_lake() -> DataLake:
    return registry.make_lake("enron", SMALL_N)


@pytest.fixture(scope="session")
def nba_lake() -> DataLake:
    return registry.make_lake("nba", 12)


@pytest.fixture(scope="session")
def movie_lake() -> DataLake:
    return registry.make_lake("movie-imdb", SMALL_N)


@pytest.fixture(scope="session")
def university_lake() -> DataLake:
    return registry.make_lake("university-usnews", SMALL_N)


@pytest.fixture(scope="session")
def all_small_lakes(fda_lake, enron_lake, nba_lake, movie_lake, university_lake):
    return [fda_lake, enron_lake, nba_lake, movie_lake, university_lake]
