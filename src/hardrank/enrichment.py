"""Hard-query detection and context-aware query rewriting.

A query is flagged hard by cheap heuristics (very short, acronym-laden or
out-of-lexicon terms, too few content words). Hard queries are rewritten by
a pluggable text generator given the query plus the most relevant
passage of its top retrieved (or highest-judged) document, so the rewrite
stays grounded in real context instead of drifting off-topic.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from .corpus_io import Document, DuplicateEntryError, ParseError, Qrels, Query, _iter_lines
from .lexical_retrieval import Bm25Params, InvertedIndex, bm25_search, select_passage
from .text import STOPWORDS, content_terms, raw_tokens, tokenize

log = logging.getLogger(__name__)

PROMPT_TEMPLATE_VERSION = "tmpl-1"

_PROMPT = """Rewrite the search query below into one clear, self-contained search query.
Ground the rewrite ONLY in the supplied context passage; do not invent facts.
Reply with the rewritten query on a single line and nothing else.

Query: {query}
Context: {passage}

Rewritten query:"""

MAX_ENRICHED_TOKENS = 64
FALLBACK_FLAG = "fallback"
NO_FLAGS = "-"


class EnrichmentError(RuntimeError):
    """Generator failure while enriching; carries the query id."""

    def __init__(self, query_id: str, message: str):
        super().__init__(f"query {query_id}: {message}")
        self.query_id = query_id


@dataclass(frozen=True)
class HardnessRule:
    """Thresholds for the hard-query heuristics."""

    max_token_count: int = 5
    acronym_pattern: bool = True
    min_context_terms: int = 2
    lexicon: frozenset[str] | None = None

    def __post_init__(self):
        if self.max_token_count < 1:
            raise ValueError("max_token_count must be >= 1")
        if self.min_context_terms < 0:
            raise ValueError("min_context_terms must be >= 0")


@dataclass(frozen=True)
class EnrichedQuery:
    query_id: str
    enriched_text: str
    context_doc_id: str
    generator_id: str
    fallback: bool = False


def classify_hardness(query: Query, rule: HardnessRule) -> str:
    """Label a query "hard" or "easy". Pure and deterministic.

    Hard iff any heuristic fires:
    - token count <= max_token_count
    - acronym_pattern enabled and either an all-caps token of length 2-5
      appears, or (with a lexicon supplied) some token is not in the lexicon
    - fewer than min_context_terms non-stopword tokens
    """
    tokens = tokenize(query.text)
    if len(tokens) <= rule.max_token_count:
        return "hard"
    if rule.acronym_pattern:
        for tok in raw_tokens(query.text):
            if 2 <= len(tok) <= 5 and tok.isupper() and any(c.isalpha() for c in tok):
                return "hard"
        if rule.lexicon is not None and any(t not in rule.lexicon for t in tokens):
            return "hard"
    if len(content_terms(tokens)) < rule.min_context_terms:
        return "hard"
    return "easy"


def build_prompt(query: Query, passage: str) -> str:
    """Instantiate the versioned rewrite prompt with query and passage verbatim."""
    if not passage:
        raise ValueError("passage must be non-empty")
    return _PROMPT.format(query=query.text, passage=passage)


class TextGenerator(Protocol):
    """A query and its non-empty context passage in, completion out."""

    generator_id: str

    def generate(self, query: Query, passage: str) -> str:
        ...


@dataclass
class StubGenerator:
    """Deterministic offline rewriter for tests and desk-scale pipelines.

    Echoes the query followed by the first `context_terms` distinct
    non-stopword passage terms that the query does not already contain --
    a crude but fully reproducible stand-in for an LLM rewrite.
    """

    context_terms: int = 6
    generator_id: str = "stub-v1"

    def generate(self, query: Query, passage: str) -> str:
        have = set(tokenize(query.text))
        added: list[str] = []
        for term in tokenize(passage):
            if term in STOPWORDS or term in have:
                continue
            have.add(term)
            added.append(term)
            if len(added) >= self.context_terms:
                break
        return " ".join([query.text] + added) if added else query.text


@dataclass
class HttpGenerator:
    """Client for a chat-completion-style HTTP endpoint.

    Sends ``{"prompt": build_prompt(query, passage), "max_tokens":
    MAX_ENRICHED_TOKENS}`` and expects ``{"text": ...}`` back. The auth
    token is read from the environment variable named by `auth_token_env`
    (sent as a Bearer header when present). Transient failures (connection
    errors, HTTP 429/5xx) are retried up to `max_retries` times with
    exponential backoff; concurrent calls are bounded by `max_in_flight`.
    The client is the standard library's `urllib.request`: HTTPS is checked
    against the system CA store, and a 307 or 308 redirect is an error.
    """

    endpoint_url: str
    auth_token_env: str = "HARDRANK_GENERATOR_TOKEN"
    max_retries: int = 3
    backoff_base: float = 0.5
    max_in_flight: int = 4
    timeout: float = 30.0
    generator_id: str = "http-v1"

    def __post_init__(self):
        if not self.endpoint_url.lower().startswith(("http://", "https://")):
            raise ValueError(f"endpoint_url must be an http(s) URL, got {self.endpoint_url!r}")
        self._gate = threading.Semaphore(self.max_in_flight)

    def generate(self, query: Query, passage: str) -> str:
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = {"prompt": build_prompt(query, passage), "max_tokens": MAX_ENRICHED_TOKENS}
        request = urllib.request.Request(self.endpoint_url, json.dumps(payload).encode(),
                                         headers, method="POST")
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                with self._gate, urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # 4xx, 5xx and unfollowed 3xx
                exc.close()
                status = exc.code
            except (OSError, http.client.HTTPException) as exc:  # connection, timeout
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = RuntimeError(f"HTTP {status}")
                continue
            if status != 200:
                raise RuntimeError(f"generator returned HTTP {status}")
            body = json.loads(body)
            if "text" not in body:
                raise RuntimeError("generator response missing 'text'")
            return str(body["text"])
        raise RuntimeError(f"generator unreachable after retries: {last_error}")


def _truncate_one_line(completion: str) -> str:
    """First non-empty line, capped at MAX_ENRICHED_TOKENS whitespace tokens."""
    line = next((candidate for candidate in completion.splitlines() if candidate.strip()), "")
    return " ".join(line.split()[:MAX_ENRICHED_TOKENS])


def _judged_context_doc(query: Query, qrels: Qrels, corpus: Mapping[str, Document]) -> str | None:
    """Highest-graded judged doc present in the corpus; ties by doc_id."""
    judged = [(-grade, doc_id) for doc_id, grade in qrels.for_query(query.query_id).items()
              if grade >= 1 and doc_id in corpus]
    return min(judged)[1] if judged else None


def enrich(
    query: Query,
    index: InvertedIndex,
    corpus: Mapping[str, Document],
    generator: TextGenerator,
    params: Bm25Params = Bm25Params(),
    passage_window: int = 120,
    qrels: Qrels | None = None,
    use_judged_context: bool = False,
) -> EnrichedQuery:
    """Rewrite one (hard) query grounded in its best context passage.

    The context document is the BM25 rank-1 hit, or the highest-graded
    judged document when `use_judged_context` is set and judgments exist.
    If no context can be retrieved, its passage holds no token, or the
    completion is blank, the original text is kept and the result is
    flagged as a fallback; the generator sees only a passage with a token.
    Generator failures raise EnrichmentError.
    """
    doc_id: str | None = None
    if use_judged_context and qrels is not None:
        doc_id = _judged_context_doc(query, qrels, corpus)
    if doc_id is None:
        hits = bm25_search(index, query, 1, params)
        doc_id = hits[0].doc_id if hits else None
    passage = rewrite = ""
    if doc_id is not None:
        passage, _ = select_passage(corpus[doc_id], query, passage_window)
    if passage:
        try:
            completion = generator.generate(query, passage)
        except Exception as exc:
            raise EnrichmentError(query.query_id, str(exc)) from exc
        rewrite = _truncate_one_line(completion)
    return EnrichedQuery(
        query_id=query.query_id,
        enriched_text=rewrite or query.text,
        context_doc_id=doc_id or "",
        generator_id=f"{generator.generator_id}+{PROMPT_TEMPLATE_VERSION}",
        fallback=not rewrite,
    )


def enrich_all(
    queries: Sequence[Query],
    index: InvertedIndex,
    corpus: Mapping[str, Document],
    generator: TextGenerator,
    max_workers: int = 1,
    **kwargs,
) -> tuple[list[EnrichedQuery], list[EnrichmentError]]:
    """Enrich many queries on `max_workers` threads, preserving input order.

    Failures are collected, sorted by query id, rather than raised so one
    bad generator call does not lose the rest of the batch.
    """
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(enrich, q, index, corpus, generator, **kwargs) for q in queries]
    enriched: list[EnrichedQuery] = []
    errors: list[EnrichmentError] = []
    for future in futures:
        try:
            enriched.append(future.result())
        except EnrichmentError as exc:
            errors.append(exc)
    errors.sort(key=lambda e: e.query_id)
    return enriched, errors


# Enriched queries persist as TSV: qid, enriched text, context doc id, flags.


def write_enriched(enriched: Iterable[EnrichedQuery]) -> list[str]:
    lines = []
    for eq in enriched:
        flags = FALLBACK_FLAG if eq.fallback else NO_FLAGS
        doc_id = eq.context_doc_id or NO_FLAGS
        lines.append(f"{eq.query_id}\t{eq.enriched_text}\t{doc_id}\t{flags}")
    return lines


def parse_enriched(lines: Iterable[str]) -> dict[str, tuple[str, str, bool]]:
    """Read the enriched-query TSV back as qid -> (text, context_doc_id, fallback)."""
    out: dict[str, tuple[str, str, bool]] = {}
    for line_no, line in _iter_lines(lines):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 TAB-separated fields, got {len(parts)}", line_no)
        qid, text, doc_id, flags = parts
        if qid in out:
            raise DuplicateEntryError(f"duplicate query id {qid!r}", line_no)
        out[qid] = (text, "" if doc_id == NO_FLAGS else doc_id, FALLBACK_FLAG in flags)
    return out
