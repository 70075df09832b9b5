"""The one SparkSession builder, shared by the tests, the jobs and the
micro-benchmarks.

Every setting goes through the builder. ``spark.driver.memory`` only
takes effect when the builder is the one that launches the JVM, which
is the case for the first session of a Python process.
"""
from __future__ import annotations

import os
from pathlib import Path

from pyspark.sql import SparkSession

SRC = Path(__file__).resolve().parent.parent


def _driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of MemTotal in GiB, clamped to 2-8g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def build_session(app: str) -> SparkSession:
    """Local SparkSession (master from ``SPARK_MASTER``, default ``local[*]``).

    ``src`` is put on the Python workers' path, so no ``PYTHONPATH`` is
    needed to run a job. Broadcast joins are off so joins exercise the
    shuffle path; the progress bar and the UI are off so logs stay clean.
    """
    spark = (
        SparkSession.builder.master(os.environ.get("SPARK_MASTER", "local[*]"))
        .appName(app)
        .config("spark.driver.memory", _driver_memory())
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.executorEnv.PYTHONPATH", str(SRC))
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
