"""Name -> lake factories for the paper's 16 evaluation settings.

Groups mirror the paper's source rows: FDA, Enron, Wiki NBA, SWDE Movie
(8 sites) and SWDE University (5 sites). Table rows that report one
number per *source* average over the group's settings.
"""
from __future__ import annotations

from functools import lru_cache

from repro.lakes import enron, fda, nba, swde
from repro.lakes.base import DataLake

GROUPS: dict[str, list[str]] = {
    "fda": ["fda"],
    "enron": ["enron"],
    "nba": ["nba"],
    "swde_movie": [f"movie-{s}" for s in swde.MOVIE_SITES],
    "swde_university": [f"university-{s}" for s in swde.UNIVERSITY_SITES],
}

GROUP_TITLES = {
    "fda": "FDA (TXT)",
    "enron": "Enron Emails (TXT)",
    "nba": "Wiki NBA (HTML)",
    "swde_movie": "SWDE Movie (HTML)",
    "swde_university": "SWDE University (HTML)",
}

ALL_SETTINGS: list[str] = [s for group in GROUPS.values() for s in group]


@lru_cache(maxsize=64)
def make_lake(setting: str, n_docs: int = 100) -> DataLake:
    """Materialize one of the 16 settings (cached — lakes are immutable)."""
    if setting == "fda":
        return fda.make_lake(n_docs)
    if setting == "enron":
        return enron.make_lake(n_docs)
    if setting == "nba":
        return nba.make_lake(n_docs)
    if setting.startswith("movie-"):
        return swde.make_movie_lake(setting.removeprefix("movie-"), n_docs)
    if setting.startswith("university-"):
        return swde.make_university_lake(setting.removeprefix("university-"), n_docs)
    raise KeyError(f"unknown setting: {setting!r}")

