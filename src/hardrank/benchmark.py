"""Deterministic synthetic benchmark with two query populations.

200 documents and 40 queries (20 hard, 20 easy by construction). Each query
owns a 5-document topic: two relevant documents (grades 3 and 1) and three
distractors.

Easy topics look like ordinary web queries: long queries whose relevant
documents are long and rich in the topic's words, with short distractors
mentioning a single topic word. First-stage retrieval and term-match
features solve them.

Hard topics are short acronym queries whose relevant documents are concise
and put the query terms up front, while the distractors are long documents
that spam the acronym. Raw term statistics favor the distractors, so a
ranker must learn the population's layout cues (document length, early
coverage) to get them right - which is exactly what a ranker specialized on
these queries can do and a population-agnostic one dilutes.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

from .corpus_io import (
    Document,
    Qrels,
    Query,
    write_corpus_file,
    write_qrels_file,
    write_queries_file,
)

N_TOPICS_EASY = 20
N_TOPICS_HARD = 20

_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "ne",
    "pa", "qi", "ru", "sa", "te", "vo", "wi", "xa", "yo", "zu",
]


def _pseudo_word(rng: random.Random, used: set[str]) -> str:
    while True:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if word not in used:
            used.add(word)
            return word


def _acronym(rng: random.Random, used: set[str]) -> str:
    while True:
        word = "".join(rng.choice(string.ascii_uppercase) for _ in range(4))
        if word.lower() not in used:
            used.add(word.lower())
            return word


@dataclass
class Benchmark:
    corpus: list[Document]
    queries: list[Query]
    qrels: Qrels
    hard_query_ids: list[str]
    easy_query_ids: list[str]


def _sentence(rng: random.Random, words: list[str]) -> list[str]:
    if rng.random() < 0.3:
        tokens = ["what", "is", "the", rng.choice(words), "of", rng.choice(words)]
    else:
        tokens = ["the", rng.choice(words), "of", rng.choice(words)]
    if rng.random() < 0.5:
        tokens += ["and", rng.choice(words)]
    tokens.append("is")
    tokens.append(rng.choice(words))
    return tokens


def _background_text(rng: random.Random, background: list[str], n_tokens: int) -> list[str]:
    tokens: list[str] = []
    while len(tokens) < n_tokens:
        tokens.extend(_sentence(rng, background))
    return tokens[:n_tokens]


def generate_benchmark(seed: int = 7) -> Benchmark:
    """Build the 200-doc / 40-query benchmark for a seed (fully deterministic)."""
    rng = random.Random(seed)
    used: set[str] = set()
    background = [_pseudo_word(rng, used) for _ in range(40)]

    corpus: list[Document] = []
    queries: list[Query] = []
    judgments: dict[tuple[str, str], int] = {}
    hard_ids: list[str] = []
    easy_ids: list[str] = []

    def add_doc(doc_id: str, tokens: list[str]) -> None:
        corpus.append(Document(doc_id, " ".join(tokens)))

    for i in range(N_TOPICS_EASY):
        qid = f"e{i:02d}"
        easy_ids.append(qid)
        w = [_pseudo_word(rng, used) for _ in range(3)]
        queries.append(
            Query(qid, f"what is the {w[0]} of the {w[1]} and the {w[2]}")
        )

        # grade-3: long, topic-rich; topic words early and sprinkled throughout
        body = _background_text(rng, background, 130)
        for word in w:
            for _ in range(5):
                body.insert(rng.randrange(len(body)), word)
        rel3 = w[:] + body
        add_doc(f"{qid}_rel3", rel3)
        judgments[(qid, f"{qid}_rel3")] = 3

        # grade-1: long as well, covers two topic words thinly
        body = _background_text(rng, background, 115)
        for word in w[:2]:
            body.insert(rng.randrange(len(body)), word)
        add_doc(f"{qid}_rel1", [w[0]] + body)
        judgments[(qid, f"{qid}_rel1")] = 1

        # distractors: very short stubs that mention two of the three topic
        # words (good surface coverage, no substance); in this population
        # the relevant material is long-form
        for j in range(3):
            body = _background_text(rng, background, 7)
            add_doc(f"{qid}_dis{j}", [w[j % 3], w[(j + 1) % 3]] + body)
            judgments[(qid, f"{qid}_dis{j}")] = 0

    for i in range(N_TOPICS_HARD):
        qid = f"h{i:02d}"
        hard_ids.append(qid)
        acro = _acronym(rng, used)
        w = [_pseudo_word(rng, used) for _ in range(3)]
        queries.append(Query(qid, f"{acro} {w[0]}"))

        # grade-3: concise, query terms first, then the topic vocabulary
        body = _background_text(rng, background, 10)
        add_doc(f"{qid}_rel3", [acro, w[0], w[1], w[2]] + body)
        judgments[(qid, f"{qid}_rel3")] = 3

        # grade-1: concise, query terms early
        body = _background_text(rng, background, 16)
        add_doc(f"{qid}_rel1", [acro, w[0]] + body)
        judgments[(qid, f"{qid}_rel1")] = 1

        # distractors: long documents that open like the relevant ones and
        # spam both query terms throughout; raw term statistics prefer them,
        # only the population's layout (concise docs) gives them away
        for j in range(3):
            body = _background_text(rng, background, 150)
            for _ in range(17):
                body.insert(rng.randrange(len(body)), acro)
            for _ in range(11):
                body.insert(rng.randrange(len(body)), w[0])
            add_doc(f"{qid}_dis{j}", [acro, w[0]] + body)
            judgments[(qid, f"{qid}_dis{j}")] = 0

    return Benchmark(
        corpus=corpus,
        queries=queries,
        qrels=Qrels(judgments),
        hard_query_ids=hard_ids,
        easy_query_ids=easy_ids,
    )


def write_benchmark(directory, seed: int = 7) -> Benchmark:
    """Generate the benchmark and write corpus/queries/qrels files."""
    directory = Path(directory)
    bench = generate_benchmark(seed)
    write_corpus_file(bench.corpus, directory / "corpus.jsonl")
    write_queries_file(bench.queries, directory / "queries.tsv")
    write_qrels_file(bench.qrels, directory / "qrels.txt")
    return bench

