"""The three benchmark workloads and the checks on their outputs.

Every workload is one caller in a closed loop: the next pipeline call
starts only after the previous one returns. Lakes are generated inputs,
built during set-up; the workload seed is passed as the pipelines' seed.

Quality is recomputed here with plain-Python references (Pair F1 and
ClosedIE Text F1), independent of ``repro.core.metrics``, after the timed
region.
"""
from __future__ import annotations

import dataclasses
import hashlib
import re
from collections import Counter

from repro.core import direct, evaporate
from repro.harness import tables
from repro.lakes import registry

CODE_PLUS_LAKE = ("fda", 4000)
DIRECT_LAKE = ("nba", 1000)
TABLES_CFG = dict(n_docs=60, sites_per_domain=1, groups=["fda", "swde_movie"])


# -- references ----------------------------------------------------------

_WS = re.compile(r"[ \t\n\x0b\f\r]+")
_TOKEN = re.compile(r"[A-Za-z0-9]+")


def _triples(df) -> set[tuple[str, str, str]]:
    out = set()
    for d, a, v in zip(df.doc_id, df.attribute, df.value):
        if v is None or not str(v).strip(" "):
            continue
        out.add((d, str(a).strip(" ").lower(), _WS.sub(" ", str(v)).strip(" ")))
    return out


def pair_counts(pred, gold) -> tuple[int, int, int]:
    """(correct, predicted, gold) exact-match (doc, attribute, value) tuples."""
    p, g = _triples(pred), _triples(gold)
    return len(p & g), len(p), len(g)


def prf(correct: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def text_f1(pred: str | None, gold: str | None) -> float:
    """SQuAD token F1; two empty strings agree."""
    pt = _TOKEN.findall((pred or "").lower())
    gt = _TOKEN.findall((gold or "").lower())
    if not pt or not gt:
        return float(pt == gt)
    overlap = sum((Counter(pt) & Counter(gt)).values())
    if not overlap:
        return 0.0
    p, r = overlap / len(pt), overlap / len(gt)
    return 2 * p * r / (p + r)


def closed_f1(pred, gold, attrs: list[str], doc_ids: list[str]) -> float:
    """Mean Text F1 over every (doc, attribute) cell of a closed schema."""
    pm = {(d, str(a).lower()): v for d, a, v in zip(pred.doc_id, pred.attribute, pred.value)}
    gm = {(d, str(a).lower()): v for d, a, v in zip(gold.doc_id, gold.attribute, gold.value)}
    cells = [(d, a.lower()) for d in doc_ids for a in attrs]
    return sum(text_f1(pm.get(c), gm.get(c)) for c in cells) / len(cells) if cells else 0.0


def digest(df, cols: tuple[str, ...] = ("doc_id", "attribute", "value")) -> str:
    rows = sorted(zip(*(["" if v is None else str(v) for v in df[c]] for c in cols)))
    h = hashlib.sha256()
    for r in rows:
        h.update(("\x1f".join(r) + "\x1e").encode())
    return h.hexdigest()[:16]


# -- per-operation summaries --------------------------------------------

def _lake_of(op):
    if op.name == "finish":
        return (op.kwargs.get("art") or op.args[1]).lake
    return op.kwargs.get("lake") or op.args[1]


def summarize_op(op) -> dict:
    """Deterministic summary of one pipeline call's output, plus checks.

    ``problems`` lists invariant violations found without a pinned
    expectation: a token ledger whose stages do not sum to its total, or a
    table with two values for one (doc, attribute) cell.
    """
    if op.error is not None:
        return {"name": op.name, "error": op.error, "problems": [op.error]}
    lake, res = _lake_of(op), op.result
    all_ids = sorted(lake.docs.doc_id)
    out: dict = {"name": op.name, "setting": lake.name, "docs": lake.n_docs}
    problems: list[str] = []
    if op.name == "prepare":
        out["digest"] = digest(res.votes_all, ("doc_id", "attribute", "fid", "value"))
        out["labels"] = hashlib.sha256(repr(sorted(
            (a, sorted(d.items())) for a, d in res.labels.items())).encode()).hexdigest()[:16]
        out["llm_tokens"] = res.ledger.total
        return {**out, "problems": problems}
    table = res.table
    out["digest"] = digest(table)
    if table.duplicated(["doc_id", "attribute"]).any():
        problems.append("two values for one (doc_id, attribute) cell")
    if op.name.startswith("direct."):
        out["llm_tokens"] = res.tokens
        if op.name == "direct.run_direct":
            out["ranked_attrs"] = hashlib.sha256(
                "\x1f".join(res.ranked_attrs).encode()).hexdigest()[:16]
            out["pair_f1"] = prf(*pair_counts(table, lake.gold))[2]
        else:
            attrs = op.kwargs.get("attrs") or op.args[2]
            out["closed_f1"] = closed_f1(table, lake.gold, attrs, all_ids)
        return {**out, "problems": problems}
    # Code+ RunResult: run_code_plus or finish
    if sum(res.ledger.by_stage.values()) != res.tokens:
        problems.append("ledger.by_stage does not sum to tokens")
    inherited = 0
    if op.name == "finish":
        art = op.kwargs.get("art") or op.args[1]
        inherited = art.ledger.total
        out["aggregator"] = op.kwargs.get("aggregator", "ws_abstain_filter")
    else:
        out["closed"] = op.kwargs.get("given_attrs") is not None
    out["llm_tokens"] = res.tokens - inherited
    c, n_p, n_g = pair_counts(table, lake.gold)
    out["pair_prf"] = list(prf(c, n_p, n_g))
    out["pair_f1"] = out["pair_prf"][2]
    out["closed_f1"] = closed_f1(table, lake.gold, lake.gold_attrs, all_ids)
    return {**out, "problems": problems}


# -- workloads -----------------------------------------------------------

class LakeCodePlus:
    """``lake_4k``: one open-schema Code+ extraction over the whole lake.

    The workload seed orders the lake's documents, and so decides what
    each Spark partition holds; the pipeline seed stays 0. One extraction's
    cost and quality depend on which functions the simulated LLM writes:
    with the workload seed as pipeline seed, five seeds spread
    ``docs_per_s`` by 22% and ``pair_f1`` by 29% (interquartile range over
    median), beyond any bound the benchmark may set.
    """

    name = "lake_4k"
    pipeline_seed = 0

    def setup(self, seed: int) -> None:
        lake = registry.make_lake(*CODE_PLUS_LAKE)
        docs = lake.docs.sample(frac=1.0, random_state=seed % 2**32)
        self.lake = dataclasses.replace(lake, docs=docs.reset_index(drop=True))
        self.warm_lake = registry.make_lake(CODE_PLUS_LAKE[0], 50)

    def warmup(self, spark, seed: int) -> None:
        evaporate.run_code_plus(spark, self.warm_lake, seed=self.pipeline_seed)

    def run(self, spark, seed: int) -> dict:
        evaporate.run_code_plus(spark, self.lake, seed=self.pipeline_seed)
        return {}

    def quality(self, ops: list[dict], frames: dict) -> tuple[float, float]:
        (op,) = ops
        return op["pair_f1"], op["closed_f1"]

    def cross_check(self, ops: list[dict], frames: dict) -> list[str]:
        return []


class PaperTables:
    """``paper_tables``: Table 1 then Table 4 at two settings, one TXT, one HTML."""

    name = "paper_tables"

    def cfg(self, seed: int, **over) -> tables.HarnessConfig:
        return tables.HarnessConfig(**{**TABLES_CFG, "seed": seed, **over})

    def setup(self, seed: int) -> None:
        cfg = self.cfg(seed)
        for group in cfg.groups:
            for s in tables._settings(cfg, group):
                registry.make_lake(s, cfg.n_docs)

    def warmup(self, spark, seed: int) -> None:
        cfg = self.cfg(seed, groups=["fda"])
        tables.table1(spark, cfg)
        tables.table4(spark, cfg)

    def run(self, spark, seed: int) -> dict:
        """The harness tables, by name."""
        cfg = self.cfg(seed)
        return {"table1": tables.table1(spark, cfg), "table4": tables.table4(spark, cfg)}

    def quality(self, ops: list[dict], frames: dict) -> tuple[float, float]:
        """Mean of the tables' average Pair F1s (Table 1 OpenIE and Table 4's
        four aggregators), and Table 1's average ClosedIE F1."""
        t1 = frames["table1"].iloc[-1]
        t4 = frames["table4"].iloc[-1]
        pair = [t1.open_f1] + [t4[a] for a in ("mv", "ws", "ws_filter", "ws_abstain_filter")]
        return sum(pair) / len(pair) / 100, t1.closed_f1 / 100

    def cross_check(self, ops: list[dict], frames: dict) -> list[str]:
        """Every table cell against the per-call reference metrics."""
        if any("error" in o for o in ops):
            return []
        title = {s: registry.GROUP_TITLES[g]
                 for g, names in registry.GROUPS.items() for s in names}
        expect: dict[tuple[str, str, str], float] = {}
        for o in ops:
            src = title[o["setting"]]
            if o["name"] == "run_code_plus" and o["closed"]:
                expect["table1", src, "closed_f1"] = 100 * o["closed_f1"]
            elif o["name"] == "run_code_plus":
                for k, v in zip(("open_p", "open_r", "open_f1"), o["pair_prf"]):
                    expect["table1", src, k] = 100 * v
            elif o["name"] == "finish":
                expect["table4", src, o["aggregator"]] = 100 * o["pair_f1"]
        problems = []
        for t, df in frames.items():
            cols = {k for tt, _, k in expect if tt == t}
            for row in df.itertuples(index=False):
                for k in cols:
                    got = getattr(row, k)
                    if row.source == "Average":
                        vals = [v for (tt, _, kk), v in expect.items() if tt == t and kk == k]
                        want, tol = sum(vals) / len(vals), 0.1
                    else:
                        want, tol = expect[t, row.source, k], 0.05
                    if abs(got - want) > tol + 1e-9:
                        problems.append(f"{t} {row.source} {k}: {got} != reference {want:.3f}")
        return problems


class DirectLong:
    """``direct_long``: OpenIE and ClosedIE Direct over long HTML documents."""

    name = "direct_long"

    def setup(self, seed: int) -> None:
        self.lake = registry.make_lake(*DIRECT_LAKE)
        self.warm_ids = sorted(self.lake.docs.doc_id)[:20]

    def warmup(self, spark, seed: int) -> None:
        direct.run_direct(spark, self.lake, seed=seed, doc_ids=self.warm_ids)
        direct.run_closed_direct(spark, self.lake, self.lake.gold_attrs, seed=seed,
                                 doc_ids=self.warm_ids)

    def run(self, spark, seed: int) -> dict:
        direct.run_direct(spark, self.lake, seed=seed)
        direct.run_closed_direct(spark, self.lake, self.lake.gold_attrs, seed=seed)
        return {}

    def quality(self, ops: list[dict], frames: dict) -> tuple[float, float]:
        return ops[0]["pair_f1"], ops[1]["closed_f1"]

    def cross_check(self, ops: list[dict], frames: dict) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (LakeCodePlus(), PaperTables(), DirectLong())}
