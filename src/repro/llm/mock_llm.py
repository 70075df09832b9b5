"""Deterministic LLM simulator with per-model noise profiles.

The paper's system is driven by commercial LLM APIs (text-davinci-003,
gpt-4, claude-v1, jurassic jumbo) that are unavailable offline. This
module is the substitution: a simulator that answers the paper's prompt
types from the document text plus the lake's ground truth, with error
channels calibrated to the paper's own error analysis:

- §4.4.1: Direct extraction misses ~27.5% of gold attributes per doc,
  outputs ~9.7 attributes not mentioned in the doc, and rewords
  attribute names in ~4 surface forms across documents.
- §3.3.2: ~40% of synthesized functions score < 25 Text F1 and ~51%
  < 50 Text F1 — reproduced mechanistically by emitting *real* Python
  extractors whose patterns are derived from the prompt's chunk (and
  hence only cover that formatting variant), with model-dependent
  corruption (case-sensitivity, greedy captures, wrong groups, crashes).

All randomness is a pure function of (seed, model, lake, doc, attribute,
purpose) so results are identical across processes and Spark executors.
The simulator's "language understanding" (recognizing that the surface
label "Directed by" denotes the director attribute) is supplied by the
lake's alias table — the honest stand-in for pretrained knowledge.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from repro.lakes.base import DataLake
from repro.llm import prompts
from repro.llm.tokens import count_tokens
from repro.util import hash_choice, hash_uniform, normalize_attr

CHATBOT_REFUSAL = "I'm not sure, please give me more information."

# Generic attribute rewordings Direct extraction drifts into (§4.4.1:
# "classification" appears as 4 different surface forms across docs).
_REWORDS = ["{a} information", "{a} details", "reported {a}", "{a} summary"]

# Hallucinated attributes (small pool so frequencies accumulate and some
# survive the head-attribute ranking, costing precision as in the paper).
_HALLUC = ["document id", "summary", "notes", "source", "page count",
           "reference", "status", "category", "keywords", "last updated"]


@dataclass(frozen=True)
class ModelProfile:
    """Noise profile of one simulated LLM provider/model."""

    name: str
    # Direct/OpenIE extraction channels, scaled by lake difficulty:
    miss_rate: float
    reword_rate: float
    value_noise: float
    halluc_rate: float  # per-chunk probability of one hallucinated pair
    # ClosedIE extraction channels:
    closed_miss: float
    closed_noise: float
    chatbot_rate: float  # ChatBot-style refusal instead of an answer
    # Function synthesis:
    fn_corrupt: float  # scaled by (0.25 + lake difficulty + fragility)
    # Schema reasoning:
    rerank_skill: float
    # Long-context collapse: docs with more than this many chunks get
    # garbage output (None = no limit). Models optimized for chat break
    # down on very long inputs (paper §4.4.2, jumbo on Wiki NBA).
    max_chunks: int | None = None
    corrupt_severity: float = 0.45  # P(a corruption is fatal vs mild)


PROFILES: dict[str, ModelProfile] = {
    "davinci": ModelProfile(
        name="davinci", miss_rate=0.28, reword_rate=0.34, value_noise=0.22,
        halluc_rate=0.75, closed_miss=0.10, closed_noise=0.12, chatbot_rate=0.0,
        fn_corrupt=0.34, rerank_skill=0.78),
    "gpt4": ModelProfile(
        name="gpt4", miss_rate=0.25, reword_rate=0.30, value_noise=0.18,
        halluc_rate=0.6, closed_miss=0.09, closed_noise=0.11, chatbot_rate=0.0,
        fn_corrupt=0.5, corrupt_severity=0.5, rerank_skill=0.76),
    "claude": ModelProfile(
        name="claude", miss_rate=0.32, reword_rate=0.36, value_noise=0.26,
        halluc_rate=0.9, closed_miss=0.14, closed_noise=0.16, chatbot_rate=0.18,
        fn_corrupt=0.75, corrupt_severity=0.6, rerank_skill=0.78),
    "jumbo": ModelProfile(
        name="jumbo", miss_rate=0.50, reword_rate=0.50, value_noise=0.45,
        halluc_rate=1.0, closed_miss=0.45, closed_noise=0.25, chatbot_rate=0.15,
        fn_corrupt=1.0, corrupt_severity=0.9, rerank_skill=0.65, max_chunks=4),
    "curie": ModelProfile(
        name="curie", miss_rate=0.45, reword_rate=0.5, value_noise=0.4,
        halluc_rate=2.0, closed_miss=0.2, closed_noise=0.3, chatbot_rate=0.0,
        fn_corrupt=0.7, rerank_skill=0.6),
}


# ---------------------------------------------------------------------------
# pattern library for function synthesis (the generic formatting shapes a
# code-writing LLM recognizes in a chunk; not lake-specific)

_SEP_STYLES = [
    # (detector template, value-terminator regex, separator literal for split-style)
    (r"<th[^>]*>{L}</th>\s*<td[^>]*>", r"(.*?)</td>", "</th>"),
    (r"{L}</div><div[^>]*>", r"(.*?)</div>", "</div>"),
    (r"<dt>{L}</dt><dd>", r"(.*?)</dd>", "</dt>"),
    (r"<li><b>{L}</b>:\s*", r"([^<]+)", "</b>:"),
    (r'<span class="lbl">{L}:</span>\s*<span class="val">', r"(.*?)</span>", ":</span>"),
    (r'<td class="k">{L}</td><td class="v">', r"(.*?)</td>", "</td>"),
    (r'<p class="meta">{L}\s*\|\s*', r"([^<]+)", "|"),
    (r"{L}\s*:\s*", r"([^\n<]+)", ":"),
    (r"{L}\s*--\s*", r"([^\n<]+)", "--"),
    (r"{L}\s*=\s*", r"([^\n<]+)", "="),
]

_MILD = [("case", 0.35), ("greedy", 0.3), ("global", 0.35)]
_FATAL = [("never", 0.45), ("crash", 0.33), ("label", 0.22)]


def _roll_corruption(severity: float, *parts: object) -> str:
    """Pick a corruption mode: *fatal* bugs (function never yields the
    value) with probability ``severity``, else *mild* ones (works on a
    slice / captures extra text). Weaker code models emit more fatal
    bugs — the §4.4.2 'inability to generate a function' failure."""
    pool = _FATAL if hash_uniform("corrupt-sev", *parts) < severity else _MILD
    u = hash_uniform("corrupt-mode", *parts)
    acc = 0.0
    for mode, w in pool:
        acc += w / sum(x for _, x in pool)
        if u < acc:
            return mode
    return pool[-1][0]


def _fn_name(attribute: str) -> str:
    field = re.sub(r"[^0-9a-zA-Z]+", "_", attribute).strip("_").lower() or "attr"
    return f"get_{field}_field"


class MockLLM:
    """Simulated LLM bound to one lake and one model profile.

    Picklable (only dataclasses / pandas inside), so instances can ride
    into Spark closures for the mapInPandas extraction UDFs. Methods
    return ``(result, tokens_processed)`` — token totals are aggregated
    by the caller (Spark column sums for per-document passes, a
    TokenLedger on the driver elsewhere).
    """

    def __init__(self, lake: DataLake, profile: str = "davinci", seed: int = 0) -> None:
        self.profile = PROFILES[profile]
        self.seed = seed
        self.lake_name = lake.name
        self.topic = lake.topic
        self.fmt = lake.fmt
        self.difficulty = lake.difficulty
        self.fragility = lake.fn_fragility
        self.aliases = dict(lake.aliases)
        # Surface forms of each canonical attribute, longest first (ties by
        # text): the keyword search tries the most specific label first.
        surfaces: dict[str, set[str]] = {}
        for surf, canon in self.aliases.items():
            surfaces.setdefault(canon, {canon}).add(surf)
        self._surfaces = {
            c: sorted(ss, key=lambda s: (-len(s), s)) for c, ss in surfaces.items()
        }
        # The LLM extracts what is *in the documents* — gold attributes
        # plus distractor fields (lake.facts) — not what the evaluators
        # later chose to annotate.
        facts = lake.facts if lake.facts is not None else lake.gold
        self._gold = {
            d: dict(zip(g.attribute, g.value))
            for d, g in facts.groupby("doc_id")
        }
        self._verbose = {a: False for a in lake.gold_attrs}
        # verbose-ness is derivable from value length; mark long values
        for d, pairs in self._gold.items():
            for a, v in pairs.items():
                if len(v) > 60:
                    self._verbose[a] = True

    # -- helpers ----------------------------------------------------------
    def _u(self, *parts: object) -> float:
        return hash_uniform(self.seed, self.profile.name, self.lake_name, *parts)

    def gold_pairs(self, doc_id: str) -> dict[str, str]:
        return self._gold.get(doc_id, {})

    def canonical(self, surface: str) -> str | None:
        return self.aliases.get(normalize_attr(surface))

    # -- OpenIE (prompt E.1) ----------------------------------------------
    def openie_extract(self, doc_id: str, chunk: str, chunk_idx: int = 0,
                       n_chunks: int = 1) -> tuple[list[tuple[str, str]], int]:
        """Extract ``(surface attribute, value)`` pairs from one chunk.

        Only gold pairs whose value actually appears in the chunk are
        candidates (provenance), then the profile's error channels are
        applied: misses, attribute rewording, value perturbation, and
        hallucinated pairs.
        """
        prompt = prompts.render(prompts.OPENIE_PROMPT, chunk=chunk, topic=self.topic)
        d = self.difficulty
        p = self.profile
        out: list[tuple[str, str]] = []
        if p.max_chunks is not None and n_chunks > p.max_chunks:
            # long-context collapse: chat-style garbage, no usable pairs
            return [("response", CHATBOT_REFUSAL)], count_tokens(prompt) + 12
        for attr, value in self._gold.get(doc_id, {}).items():
            # provenance: the value must appear in this chunk — either
            # verbatim or spread over continuation lines (list values)
            present = value in chunk or (
                "," in value and all(p.strip() in chunk for p in value.split(","))
            )
            if not present:
                continue
            if self._u("miss", doc_id, attr) < min(0.9, p.miss_rate * (0.1 + d)):
                continue
            surface = attr  # the LLM usually canonicalizes the label...
            if self._u("reword", doc_id, attr) < p.reword_rate * (0.1 + d):
                # ...but drifts: echoes the doc's literal surface form, or
                # invents a rewording (§4.4.1: 4 surface forms per attr)
                if self._u("reword-kind", doc_id, attr) < 0.5:
                    surface = self._surface_for(doc_id, attr, chunk)
                else:
                    tmpl = hash_choice(_REWORDS, self.seed, "reword-t", doc_id, attr)
                    surface = tmpl.format(a=attr)
            out.append((surface, self._noisy_value(doc_id, attr, value)))
        if self._u("halluc", doc_id, chunk_idx) < min(0.95, p.halluc_rate * (0.25 + d)):
            fake = hash_choice(_HALLUC, self.seed, "halluc-a", doc_id, chunk_idx)
            out.append((fake, f"misc-{(hash_choice('0123456789', self.seed, 'halluc-v', doc_id, chunk_idx))}"))
        completion = "\n".join(f"- {a}: {v}" for a, v in out)
        return out, count_tokens(prompt) + count_tokens(completion)

    def _surface_for(self, doc_id: str, attr: str, chunk: str) -> str:
        """The surface form the LLM echoes: the label as written in the doc."""
        for surf, canon in self.aliases.items():
            if canon == attr and surf != attr and re.search(re.escape(surf), chunk, re.I):
                return surf
        return attr

    def _noisy_value(self, doc_id: str, attr: str, value: str) -> str:
        p = self.profile
        rate = p.value_noise * (0.1 + self.difficulty)
        if self._verbose.get(attr, False):
            rate = min(0.9, rate + 0.22)
        if self._u("vnoise", doc_id, attr) >= rate:
            return value
        mode = hash_choice(["trunc", "case", "partial"], self.seed, "vmode", doc_id, attr)
        toks = value.split()
        if mode == "trunc" and len(toks) > 1:
            return " ".join(toks[: max(1, len(toks) // 2)])
        if mode == "partial" and len(toks) > 1:
            return " ".join(toks[len(toks) // 2:])
        return value.lower() if value.lower() != value else value.upper()

    def mention_chunk(self, attribute: str, doc_text: str) -> str:
        """Keyword-search the doc for the portion mentioning the attribute
        (§3.2.2) — the context fed to extraction/synthesis prompts."""
        from repro.core.chunk import split_chunks

        canon = self.canonical(attribute) or attribute
        chunks = split_chunks(doc_text)
        for ch in chunks:
            for s in self._surfaces.get(canon, [canon]):
                if re.search(re.escape(s), ch, re.IGNORECASE):
                    return ch
        return chunks[0]

    # -- ClosedIE (prompt E.2) --------------------------------------------
    def closed_extract(self, doc_id: str, attribute: str, doc_text: str) -> tuple[str, int]:
        """High-quality LLM F extraction of one attribute from one doc."""
        prompt = prompts.render(prompts.CLOSED_PROMPT, chunk=doc_text, attribute=attribute)
        tokens = count_tokens(prompt) + 8
        p = self.profile
        d = self.difficulty
        n_chunks = max(1, count_tokens(doc_text) // 1000)
        if p.max_chunks is not None and n_chunks > p.max_chunks:
            return CHATBOT_REFUSAL, tokens
        canon = self.canonical(attribute) or attribute
        value = self._gold.get(doc_id, {}).get(canon, "")
        if self._u("chatbot", doc_id, canon) < p.chatbot_rate:
            return CHATBOT_REFUSAL, tokens
        if not value:
            # attribute absent: mostly a correct empty answer, rare hallucination
            if self._u("c-halluc", doc_id, canon) < 0.05 * p.halluc_rate:
                return "not specified", tokens
            return "", tokens
        if self._u("c-miss", doc_id, canon) < p.closed_miss * (0.15 + d):
            return "", tokens
        rate = p.closed_noise * (0.15 + d)
        if self._verbose.get(canon, False):
            rate = min(0.85, rate + 0.18)
        if self._u("c-noise", doc_id, canon) < rate:
            toks = value.split()
            if len(toks) > 1:
                return " ".join(toks[: max(1, len(toks) * 3 // 4)]), tokens
            return value.lower() if value.lower() != value else value, tokens
        return value, tokens

    # -- Function synthesis (prompts E.3, P_A and P_B) --------------------
    def synthesize_function(self, attribute: str, chunk: str, style: str,
                            salt: str) -> tuple[str, str, int]:
        """Emit Python source for an extractor of ``attribute``.

        The emitted pattern is derived from the label/format actually
        visible in ``chunk`` — functions genuinely cover only that
        formatting variant. ``style`` selects P_A (regex, IGNORECASE) or
        P_B (split-based, case-sensitive). Returns (source, fn_name,
        tokens).
        """
        name = _fn_name(attribute)
        tmpl = prompts.FUNC_PROMPT_A if style == "A" else prompts.FUNC_PROMPT_B
        prompt = prompts.render(tmpl, chunk=chunk, attribute=attribute,
                                function_field=name[4:-6])
        canon = self.canonical(attribute) or attribute
        label, sep_idx = self._find_label(canon, chunk)
        eff_corrupt = min(0.92, self.profile.fn_corrupt * (0.25 + self.difficulty + self.fragility))
        corrupted = self._u("corrupt", attribute, style, salt) < eff_corrupt
        mode = _roll_corruption(self.profile.corrupt_severity, self.seed,
                                self.profile.name, self.lake_name,
                                attribute, style, salt) if corrupted else None

        if mode == "global":
            # over-general pattern: grabs the first labelled value in the
            # document regardless of which attribute it belongs to — fires
            # on every doc, usually wrongly (the "worse than random"
            # functions that motivate Algorithm 1's filtering step)
            src = self._regex_source(
                name, r"(?:\:\s|\-\-\s|\=\s|<td[^>]*>|<dd>)", r"([^\n<]{3,60})", True)
        elif label is None and canon.lower() in ("title", "name") and "<title>" in chunk:
            src = self._title_tag_source(name)
        elif label is None or mode == "never":
            miss_label = (label or canon) + "ZZQ"
            src = self._regex_source(name, re.escape(miss_label) + r":\s*", r"([^\n<]+)", False)
        elif mode == "crash":
            det, term, _ = _SEP_STYLES[sep_idx]
            src = self._regex_source(name, det.format(L=re.escape(label)), term, True,
                                     group=2)
        elif mode == "label":
            det, term, _ = _SEP_STYLES[sep_idx]
            src = self._regex_source(name, "(" + det.format(L=re.escape(label)) + ")",
                                     term.replace("(", "(?:", 1), True)
        elif mode == "greedy":
            det, _, _ = _SEP_STYLES[sep_idx]
            src = self._regex_source(name, det.format(L=re.escape(label)),
                                     r"([\s\S]{0,160})", True)
        elif style == "A":
            det, term, _ = _SEP_STYLES[sep_idx]
            src = self._regex_source(name, det.format(L=re.escape(label)), term,
                                     ignorecase=(mode != "case"))
        else:  # style B: split on the literal label (case-sensitive)
            det, term, sep = _SEP_STYLES[sep_idx]
            terminators = "\n<"  # value ends at a newline (txt) or tag (html)
            src = (
                f"def {name}(text: str):\n"
                f"    \"\"\"Extract the {attribute} field (split-based).\"\"\"\n"
                f"    key = {label!r}\n"
                f"    if key not in text:\n"
                f"        return ''\n"
                f"    part = text.split(key, 1)[1]\n"
                f"    part = part.lstrip(':-=| >')\n"
                f"    if part.startswith('/'):\n"
                f"        part = part.split('>', 1)[-1]\n"
                f"    for t in {terminators!r}:\n"
                f"        part = part.split(t, 1)[0]\n"
                f"    return part.strip()\n"
            )
            if mode == "case":
                src = src.replace(f"key = {label!r}", f"key = {label.upper()!r}")
        completion_tokens = count_tokens(src)
        return src, name, count_tokens(prompt) + completion_tokens

    def _find_label(self, canon: str, chunk: str) -> tuple[str | None, int]:
        """Locate a surface label for ``canon`` in the chunk + its format."""
        # check literal casings present in the chunk (aliases are normalized;
        # scan case-insensitively then recover the literal text)
        for surf in self._surfaces.get(canon, [canon]):
            m = re.search(re.escape(surf), chunk, re.IGNORECASE)
            if not m:
                continue
            literal = m.group(0)
            for i, (det, _term, _sep) in enumerate(_SEP_STYLES):
                if re.search(det.format(L=re.escape(literal)), chunk):
                    return literal, i
        return None, -1

    @staticmethod
    def _regex_source(name: str, det: str, term: str, ignorecase: bool = True,
                      group: int = 1) -> str:
        flags = "re.IGNORECASE" if ignorecase else "0"
        pattern = det + term
        return (
            f"import re\n"
            f"def {name}(text: str):\n"
            f"    \"\"\"Extract via regex pattern derived from the sample chunk.\"\"\"\n"
            f"    m = re.search({pattern!r}, text, {flags})\n"
            f"    return m.group({group}).strip() if m else ''\n"
        )

    @staticmethod
    def _title_tag_source(name: str) -> str:
        return (
            f"import re\n"
            f"def {name}(text: str):\n"
            f"    \"\"\"Extract the page title (before the site suffix).\"\"\"\n"
            f"    m = re.search(r'<title>(.*?)(?: - [^<]*)?</title>', text)\n"
            f"    return m.group(1).strip() if m else ''\n"
        )

    # -- Schema re-ranking (§3.2.1) and validation (prompt E.4) -----------
    def rerank_attributes(self, counts: dict[str, int]) -> tuple[dict[str, int], list[str], int]:
        """Merge aliases to canonical names and mark the useful attributes.

        Returns (merged counts keyed by canonical-or-surface name, the
        LLM's "useful" list, tokens). Alias merging succeeds with
        probability ``rerank_skill`` per surface form — the reasoning
        step the paper credits to the LLM.
        """
        prompt = prompts.render(prompts.RERANK_PROMPT, topic=self.topic,
                                attributes="\n".join(f"- {a}" for a in counts))
        merged: dict[str, int] = {}
        for surface, c in counts.items():
            canon = self.canonical(surface)
            if canon is not None and self._u("merge", surface) < self.profile.rerank_skill:
                merged[canon] = merged.get(canon, 0) + c
            else:
                merged[surface] = merged.get(surface, 0) + c
        useful = []
        for attr in merged:
            is_gold = self.canonical(attr) == attr and attr in self._verbose
            p_useful = self.profile.rerank_skill if is_gold else 0.22
            if self._u("useful", attr) < p_useful:
                useful.append(attr)
        return merged, useful, count_tokens(prompt) + count_tokens(", ".join(useful))

    def validate_attribute(self, attribute: str, values: list[str]) -> tuple[bool, int]:
        """Prompt-E.4 sanity check: keep the attribute iff any sampled
        value looks like a plausible database value (non-empty, not a
        refusal, not absurdly long)."""
        tokens = 0
        ok = False
        for v in values[:5]:
            tokens += count_tokens(prompts.render(
                prompts.VALIDATE_PROMPT, value=v[:80], attribute=attribute,
                topic=self.topic)) + 2
            if v and v != CHATBOT_REFUSAL and len(v) <= 200:
                ok = True
        return ok, tokens
