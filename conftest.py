import pytest
from pyspark.sql import SparkSession

from repro.session import build_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session."""
    s = build_session("repro")
    yield s
    s.stop()
