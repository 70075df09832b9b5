"""Per-layer tracing applied from outside the program.

``instrument`` rebinds the public ``repro`` functions named in ``LAYERS``
(in the namespace their callers look them up in) to wrappers that record
one span per call: name, start, end, parent span and the id of the
pipeline call (operation) it belongs to. Each span tags the Spark jobs it
fires with ``SparkContext.setJobGroup`` and counts them with
``statusTracker().getJobIdsForGroup`` when it ends, so counts never depend
on how many jobs the status store retains. Spans stay in memory.

``run_functions`` and ``aggregate_votes_spark`` return lazy DataFrames;
their wrappers persist and count the result so the span covers the real
work. The cached frames are released when the operation ends.

Pipeline calls (``OPS``) are recorded in every mode, traced or not, so
the benchmark can check each one's output after the timed region.
"""
from __future__ import annotations

import contextlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import aggregate, direct, evaporate
from repro.harness import tables
from repro.lakes import registry
from repro.llm.mock_llm import MockLLM


def _ledger_delta(name: str, pos: int | None = None):
    """Count the tokens a call adds to the ledger it is handed."""
    def before(args, kwargs):
        ledger = kwargs.get(name)
        if ledger is None and pos is not None and len(args) > pos:
            ledger = args[pos]
        return ledger, ledger.total if ledger is not None else 0

    def after(rec, out, state):
        ledger, t0 = state
        rec.counts["tokens"] = ledger.total - t0 if ledger is not None else 0
    return before, after


def _persist_count(key: str, release: bool):
    """Persist and count a lazy result so the span covers its computation.

    ``release``: unpersist when the operation ends. The votes frame from
    ``run_functions`` is left alone: ``prepare_code`` persists it itself
    and its artifacts release it.
    """
    def after(rec, out, state):
        out = out.persist()
        rec.counts[key] = out.count()
        if release:
            rec.persisted.append(out)
        return out
    return None, after


def _synthesis_hooks():
    before, tokens = _ledger_delta("ledger")

    def after(rec, out, state):
        tokens(rec, out, state)
        rec.counts["candidates"] = len(out)
    return before, after


_PREPARE_SIG = inspect.signature(evaporate.prepare_code)


def _prepare_key(args, kwargs):
    """The arguments that decide ``prepare_code``'s result, as one key."""
    bound = _PREPARE_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = dict(bound.arguments)
    a.pop("spark")
    lake = a.pop("lake")
    return repr((lake.name, lake.n_docs, sorted(
        (k, tuple(v) if isinstance(v, list) else v) for k, v in a.items())))


def _prepare_after(rec, out, state):
    rec.counts["votes_rows"] = len(out.votes_all)
    rec.key = state


def _finish_before(args, kwargs):
    art = kwargs["art"] if "art" in kwargs else args[1]
    return art.ledger.by_stage.get("validation", 0)


def _finish_after(rec, out, state):
    rec.counts["validation_tokens"] = out.ledger.by_stage.get("validation", 0) - state


def _plan_after(rec, out, state):
    rec.counts["kept"] = len(out.kept)
    rec.counts["candidates"] = len(out.scores)
    rec.counts["alive"] = int(out.alive)


def _direct_after(rec, out, state):
    rec.counts["tokens"] = out.tokens
    rec.counts["rows"] = len(out.table)


@dataclass(frozen=True)
class Layer:
    span: str
    owner: Any  # module or class whose attribute is rebound
    attr: str
    before: Callable | None = None  # (args, kwargs) -> state
    after: Callable | None = None  # (span, result, state) -> result | None


LAYERS: list[Layer] = [
    Layer("lakes.make_lake", registry, "make_lake"),
    Layer("mock_llm.init", MockLLM, "__init__"),
    Layer("schema", evaporate, "synthesize_schema",
          after=lambda rec, out, st: rec.counts.update(tokens=out.ledger.total)),
    Layer("synthesis", evaporate, "generate_candidates", *_synthesis_hooks()),
    Layer("execute", evaporate, "run_functions", *_persist_count("fn_docs", release=False)),
    Layer("prepare", evaporate, "prepare_code", _prepare_key, _prepare_after),
    Layer("eval_labels", aggregate, "eval_labels", *_ledger_delta("ledger", 4)),
    Layer("plan", aggregate, "score_and_plan", after=_plan_after),
    Layer("ws.fit", aggregate, "fit_label_model",
          before=lambda args, kwargs: len(kwargs.get("votes", args[0] if args else {})),
          after=lambda rec, out, st: rec.counts.update(docs=st)),
    Layer("finish", evaporate, "finish_code_plus", _finish_before, _finish_after),
    Layer("aggregate", aggregate, "aggregate_votes_spark", *_persist_count("rows_out", release=True)),
    Layer("metrics.pair_f1", tables, "pair_f1"),
    Layer("metrics.closed_text_f1", tables, "closed_text_f1"),
    Layer("direct.run_direct", direct, "run_direct", after=_direct_after),
    Layer("direct.run_closed_direct", direct, "run_closed_direct", after=_direct_after),
    Layer("harness.table1", tables, "table1"),
    Layer("harness.table4", tables, "table4"),
    Layer("run_code_plus", evaporate, "run_code_plus"),
]

# Pipeline calls: each outermost call of one of these is one operation.
OPS = {
    "run_code_plus": (evaporate, "run_code_plus"),
    "prepare": (evaporate, "prepare_code"),
    "finish": (evaporate, "finish_code_plus"),
    "direct.run_direct": (direct, "run_direct"),
    "direct.run_closed_direct": (direct, "run_closed_direct"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    pass_id: int | None
    start: float
    end: float = 0.0
    spark_jobs: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    key: str | None = None
    persisted: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Op:
    """One pipeline call: its name, bound arguments and result or error."""

    name: str
    args: tuple
    kwargs: dict
    result: Any = None
    error: str | None = None


class Recorder:
    """Holds the operations and spans of one benchmark run, in memory."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.ops: list[Op] = []
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: int | None = None
        self.pass_id: int | None = None

    # -- spans -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        s = Span(len(self.spans), name, parent.id if parent else None,
                 self.op, self.pass_id, time.perf_counter())
        self.spans.append(s)
        self.stack.append(s)
        group = f"perfbench-{s.id}"
        self.sc.setJobGroup(group, name)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.spark_jobs = len(self.sc.statusTracker().getJobIdsForGroup(group))
            self.stack.pop()
            if parent is not None:
                self.sc.setJobGroup(f"perfbench-{parent.id}", parent.name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def _traced(self, layer: Layer, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            state = layer.before(args, kwargs) if layer.before else None
            with self.span(layer.span) as s:
                out = fn(*args, **kwargs)
                if layer.after:
                    replaced = layer.after(s, out, state)
                    out = out if replaced is None else replaced
            return out
        return wrapper

    # -- operations --------------------------------------------------------
    def _op(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.op is not None:  # nested inside another operation
                return fn(*args, **kwargs)
            op = Op(name, args, kwargs)
            first_span = len(self.spans)
            self.op = len(self.ops)
            self.ops.append(op)
            try:
                op.result = fn(*args, **kwargs)
                return op.result
            except Exception as e:
                op.error = f"{type(e).__name__}: {e}"
                raise
            finally:
                self.op = None
                for s in self.spans[first_span:]:
                    while s.persisted:
                        s.persisted.pop().unpersist()
        return wrapper

    @contextlib.contextmanager
    def instrument(self, trace: bool):
        """Rebind the traced layers (if ``trace``) and the operations."""
        saved = []
        if trace:
            for layer in LAYERS:
                fn = getattr(layer.owner, layer.attr)
                saved.append((layer.owner, layer.attr, fn))
                setattr(layer.owner, layer.attr, self._traced(layer, fn))
        for name, (owner, attr) in OPS.items():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._op(name, fn))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
