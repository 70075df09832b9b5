"""Core dataclasses and rendering for synthetic heterogeneous data lakes.

A *lake* is a set of semi-structured documents (TXT or HTML) plus the
manually-curated ground truth the paper evaluates against:

- ``docs``:  pandas frame ``(doc_id, variant, text)``
- ``gold``:  long frame ``(doc_id, attribute, value)`` — one row per
  attribute *present* in the document (coverage < 1 drops rows)
- ``gold_attrs``: canonical attribute names, ordered by importance
  (coverage-ranked, mirroring the paper's "head attributes first")

Heterogeneity is modelled with *variants*: each document is rendered by
one of the lake's formatting variants, which differ in the surface label
used for each attribute (casing/punctuation/synonyms) and in the line
template embedding the value. Synthesized extraction functions derived
from one variant genuinely fail to match other variants — this is the
mechanism behind the paper's "high precision / low recall functions".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import pandas as pd

from repro.util import hash_rng, hash_uniform, normalize_attr

# ---------------------------------------------------------------------------
# filler prose

_WORDS = (
    "the device report section provides additional context regarding the "
    "submission and its intended use within the broader regulatory review "
    "process including performance testing bench data clinical summaries "
    "software verification labeling comparisons and general discussion of "
    "substantial equivalence as determined by the review team during the "
    "evaluation period for this record"
).split()


def filler(n_tokens: int, *seed_parts: object) -> str:
    """Deterministic pseudo-prose of roughly ``n_tokens`` tokens.

    Used to pad documents to realistic sizes so the token-cost columns
    (Table 3) have the right per-lake ratios.
    """
    if n_tokens <= 0:
        return ""
    g = hash_rng("filler", *seed_parts)
    words = [_WORDS[i] for i in g.integers(0, len(_WORDS), int(n_tokens))]
    out, line = [], []
    for w in words:
        line.append(w)
        if len(line) >= 14:
            out.append(" ".join(line) + ".")
            line = []
    if line:
        out.append(" ".join(line) + ".")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class AttrSpec:
    """One gold attribute of a lake.

    ``kind`` drives value generation; ``coverage`` is the fraction of
    documents carrying the attribute (the paper prioritizes high-coverage
    attributes); ``verbose`` marks long/compound values that direct LLM
    extraction tends to truncate (hurting exact-match Pair F1).
    """

    name: str
    kind: str = "category"  # category | name | date | code | num | longtext | list | compound
    coverage: float = 1.0
    verbose: bool = False
    vocab: tuple[str, ...] = ()
    # Fraction of docs where the value is rendered across continuation
    # lines (e.g. long email recipient lists) — gold keeps the logical
    # value, line-based extractors capture only the first line.
    multiline_rate: float = 0.0
    # Fraction of docs (HTML lakes) where the value is wrapped in an
    # anchor tag — gold keeps the plain text, greedy captures keep markup.
    link_rate: float = 0.0


@dataclass(frozen=True)
class Variant:
    """A formatting variant of the lake (or an SWDE 'site' style)."""

    vid: str
    weight: float
    labels: dict[str, str]  # canonical attr -> surface label
    line_fmt: str  # template with {label} and {value}
    line_fmt_overrides: dict[str, str] = field(default_factory=dict)


@dataclass
class DataLake:
    """A fully materialized synthetic lake + ground truth.

    ``gold`` holds only the curated evaluation attributes (the paper's
    annotator-agreed "important" attributes); ``facts`` additionally
    holds *distractor* fields that genuinely appear in the documents but
    are not part of the gold schema. Extraction systems that surface
    them pay precision against gold — exactly the regime the paper
    evaluates in (§A: the gold-attribute count is "generally not the
    number of attributes that maximizes the Pair F1 score").
    """

    name: str
    topic: str
    fmt: str  # "txt" | "html"
    docs: pd.DataFrame
    gold: pd.DataFrame
    gold_attrs: list[str]
    aliases: dict[str, str]  # normalized surface form -> canonical attr
    difficulty: float  # [0,1] scales direct-LLM noise (per-lake hardness)
    fn_fragility: float  # [0,1] extra probability a synthesized fn is brittle
    facts: pd.DataFrame | None = None  # gold + distractor rows

    def __post_init__(self) -> None:
        if self.facts is None:
            self.facts = self.gold

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    def select_docs(self, doc_ids: list[str] | None) -> pd.DataFrame:
        """The documents in ``doc_ids`` (all of them for ``None``)."""
        if doc_ids is None:
            return self.docs
        return self.docs[self.docs.doc_id.isin(set(doc_ids))].reset_index(drop=True)

    @cached_property
    def text_of(self) -> dict[str, str]:
        """doc_id -> document text: the lake's one document index, built on
        first use (``docs`` must not be reassigned afterwards)."""
        return dict(zip(self.docs.doc_id, self.docs.text))


# ---------------------------------------------------------------------------
# value generation

_FIRST = ["James", "Mary", "Robert", "Linda", "Michael", "Susan", "David",
          "Karen", "Richard", "Nancy", "Thomas", "Lisa", "Daniel", "Betty"]
_LAST = ["Smith", "Johnson", "Brown", "Davis", "Miller", "Wilson", "Moore",
         "Taylor", "Anderson", "Thomas", "Jackson", "White", "Harris", "Clark"]
_CITIES = ["Columbus, Ohio", "Austin, Texas", "Akron, Ohio", "Denver, Colorado",
           "Boston, Massachusetts", "Chicago, Illinois", "Seattle, Washington",
           "Atlanta, Georgia", "Portland, Oregon", "Phoenix, Arizona"]


def gen_value(attr: AttrSpec, lake: str, doc_id: str) -> str:
    """Deterministic ground-truth value for ``attr`` in ``doc_id``."""
    g = hash_rng("value", lake, doc_id, attr.name)
    if attr.vocab:
        return str(attr.vocab[g.integers(0, len(attr.vocab))])
    k = attr.kind
    if k == "date":
        y, m, d = 1950 + g.integers(0, 73), 1 + g.integers(0, 12), 1 + g.integers(0, 28)
        return f"{_MONTHS[m - 1]} {d}, {y}"
    if k == "name":
        return f"{_FIRST[g.integers(0, len(_FIRST))]} {_LAST[g.integers(0, len(_LAST))]}"
    if k == "code":
        return f"K{g.integers(100000, 999999)}"
    if k == "num":
        return str(int(g.integers(1, 5000)))
    if k == "city":
        return _CITIES[g.integers(0, len(_CITIES))]
    if k == "list":
        n = 2 + int(g.integers(0, 3))
        items = sorted({_LAST[g.integers(0, len(_LAST))] for _ in range(n)})
        return ", ".join(items)
    if k == "longtext":
        return ("indicated for the quantitative measurement of analyte levels in "
                f"serum specimen type {int(g.integers(1, 99))} under standard conditions")
    if k == "compound":
        y = 1950 + int(g.integers(0, 60))
        city = _CITIES[g.integers(0, len(_CITIES))]
        return f"{_MONTHS[g.integers(0, 12)]} {1 + int(g.integers(0, 28))}, {y} (age {2026 - y}) {city}"
    # category fallback
    return f"type-{int(g.integers(1, 12))}"


_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]


# ---------------------------------------------------------------------------
# rendering

def _pick_variant(variants: list[Variant], lake: str, doc_id: str) -> Variant:
    u = hash_uniform("variant", lake, doc_id)
    acc = 0.0
    total = sum(v.weight for v in variants)
    for v in variants:
        acc += v.weight / total
        if u < acc:
            return v
    return variants[-1]


def render_lake(
    *,
    name: str,
    topic: str,
    fmt: str,
    attrs: list[AttrSpec],
    variants: list[Variant],
    n_docs: int,
    doc_tokens: int,
    difficulty: float,
    fn_fragility: float,
    header: str = "",
    footer: str = "",
    interleave_filler_tokens: int = 0,
    distractors: list[AttrSpec] | None = None,
) -> DataLake:
    """Materialize a lake: render each doc from its variant + gold values.

    Attribute lines are interleaved with filler prose; total doc size is
    padded to ~``doc_tokens`` tokens. The gold table records exactly the
    values embedded in the text (the reproduction's "manually curated"
    ground truth — by construction it is perfectly faithful).
    """
    distractors = distractors or []
    all_specs = list(attrs) + list(distractors)
    distractor_names = {a.name for a in distractors}
    doc_rows, gold_rows, fact_rows = [], [], []
    for i in range(n_docs):
        doc_id = f"{name}-{i:04d}"
        v = _pick_variant(variants, name, doc_id)
        parts: list[str] = []
        if header:
            parts.append(header.format(doc_id=doc_id))
        present: list[tuple[str, str]] = []
        spec_of = {a.name: a for a in all_specs}
        for a in all_specs:
            if hash_uniform("coverage", name, doc_id, a.name) < a.coverage:
                val = gen_value(a, name, doc_id)
                present.append((a.name, val))
                fact_rows.append((doc_id, a.name, val))
                if a.name not in distractor_names:
                    gold_rows.append((doc_id, a.name, val))
        pad_each = interleave_filler_tokens
        for j, (attr, val) in enumerate(present):
            label = v.labels.get(attr, attr)
            fmt_line = v.line_fmt_overrides.get(attr, v.line_fmt)
            spec = spec_of[attr]
            doc_val = val
            if spec.multiline_rate and hash_uniform(
                    "multiline", name, doc_id, attr) < spec.multiline_rate:
                doc_val = val.replace(", ", ",\n\t")
            if spec.link_rate and fmt == "html" and hash_uniform(
                    "link", name, doc_id, attr) < spec.link_rate:
                slug = val.replace(" ", "_")
                doc_val = f'<a href="/wiki/{slug}">{val}</a>'
            parts.append(fmt_line.format(label=label, value=doc_val))
            if pad_each:
                parts.append(filler(pad_each, name, doc_id, j))
        if footer:
            parts.append(footer.format(doc_id=doc_id))
        body = "\n".join(parts)
        # pad to target size (tokens ~ chars/4)
        deficit = doc_tokens - len(body) // 4
        if deficit > 40:
            body = body + "\n" + filler(deficit, name, doc_id, "pad")
        doc_rows.append((doc_id, v.vid, body))

    aliases: dict[str, str] = {}
    for v in variants:
        for attr, label in v.labels.items():
            aliases[normalize_attr(label)] = attr
    for a in all_specs:
        aliases.setdefault(normalize_attr(a.name), a.name)

    # importance order: coverage-descending, spec order as tiebreak
    order = sorted(range(len(attrs)), key=lambda i: (-attrs[i].coverage, i))
    gold_attrs = [attrs[i].name for i in order]

    return DataLake(
        name=name,
        topic=topic,
        fmt=fmt,
        docs=pd.DataFrame(doc_rows, columns=["doc_id", "variant", "text"]),
        gold=pd.DataFrame(gold_rows, columns=["doc_id", "attribute", "value"]),
        gold_attrs=gold_attrs,
        aliases=aliases,
        difficulty=difficulty,
        fn_fragility=fn_fragility,
        facts=pd.DataFrame(fact_rows, columns=["doc_id", "attribute", "value"]),
    )
