"""Deterministic synthetic benchmark with two query populations.

200 documents and 40 queries (20 hard, 20 easy by construction). Each query
owns a 5-document topic: two relevant documents (grades 3 and 1) and three
distractors.

Easy topics look like ordinary web queries: long queries whose relevant
documents are long and rich in the topic's words, with short distractors
mentioning two topic words. First-stage retrieval and term-match
features solve them.

Hard topics are short acronym queries whose relevant documents are concise
and put the query terms up front, while the distractors are long documents
that spam the acronym. Raw term statistics favor the distractors, so a
ranker must learn the population's layout cues (document length, early
coverage) to get them right - which is exactly what a ranker specialized on
these queries can do and a population-agnostic one dilutes.

A population draws a topic's fresh words and returns its query text and a
five-row document recipe. A row is ``(id suffix, grade, leading tokens,
number of background tokens, inserts)``: the document is the leading tokens
followed by the background, with each insert put at a random position of
the background in list order. One loop builds every topic from its recipe.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

from .corpus_io import (Document, Qrels, Query, write_corpus_file, write_qrels_file,
                        write_queries_file)

N_TOPICS_EASY = 20
N_TOPICS_HARD = 20

_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "ne",
    "pa", "qi", "ru", "sa", "te", "vo", "wi", "xa", "yo", "zu",
]


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3))


def _acronym(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_uppercase) for _ in range(4))


def _fresh(rng: random.Random, used: set[str], draw) -> str:
    """Redraw `draw(rng)` until its lowercase form is not in `used`; keep it there."""
    while True:
        word = draw(rng)
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


def _easy_topic(rng: random.Random, used: set[str]) -> tuple[str, list[tuple]]:
    w = [_fresh(rng, used, _pseudo_word) for _ in range(3)]
    return f"what is the {w[0]} of the {w[1]} and the {w[2]}", [
        # grade-3: long, topic-rich; topic words early and sprinkled throughout
        ("rel3", 3, w, 130, [word for word in w for _ in range(5)]),
        # grade-1: long as well, covers two topic words thinly
        ("rel1", 1, [w[0]], 115, w[:2]),
    ] + [
        # distractors: very short stubs that mention two of the three topic
        # words (good surface coverage, no substance); in this population
        # the relevant material is long-form
        (f"dis{j}", 0, [w[j % 3], w[(j + 1) % 3]], 7, []) for j in range(3)
    ]


def _hard_topic(rng: random.Random, used: set[str]) -> tuple[str, list[tuple]]:
    acro = _fresh(rng, used, _acronym)
    w = [_fresh(rng, used, _pseudo_word) for _ in range(3)]
    return f"{acro} {w[0]}", [
        # grade-3: concise, query terms first, then the topic vocabulary
        ("rel3", 3, [acro, *w], 10, []),
        # grade-1: concise, query terms early
        ("rel1", 1, [acro, w[0]], 16, []),
    ] + [
        # distractors: long documents that open like the relevant ones and
        # spam both query terms throughout; raw term statistics prefer them,
        # only the population's layout (concise docs) gives them away
        (f"dis{j}", 0, [acro, w[0]], 150, [acro] * 17 + [w[0]] * 11) for j in range(3)
    ]


def generate_benchmark(seed: int = 7) -> Benchmark:
    """Build the 200-doc / 40-query benchmark for a seed (fully deterministic)."""
    rng = random.Random(seed)
    used: set[str] = set()
    background = [_fresh(rng, used, _pseudo_word) for _ in range(40)]

    corpus: list[Document] = []
    queries: list[Query] = []
    judgments: dict[tuple[str, str], int] = {}
    easy_ids = [f"e{i:02d}" for i in range(N_TOPICS_EASY)]
    hard_ids = [f"h{i:02d}" for i in range(N_TOPICS_HARD)]
    for qid in easy_ids + hard_ids:
        population = _hard_topic if qid in hard_ids else _easy_topic
        text, recipe = population(rng, used)
        queries.append(Query(qid, text))
        for suffix, grade, lead, n_background, inserts in recipe:
            body = _background_text(rng, background, n_background)
            for word in inserts:
                body.insert(rng.randrange(len(body)), word)
            corpus.append(Document(f"{qid}_{suffix}", " ".join(lead + body)))
            judgments[(qid, f"{qid}_{suffix}")] = grade
    return Benchmark(corpus, queries, Qrels(judgments), hard_ids, easy_ids)


def write_benchmark(directory, seed: int = 7) -> Benchmark:
    """Generate the benchmark and write corpus/queries/qrels files."""
    directory = Path(directory)
    bench = generate_benchmark(seed)
    write_corpus_file(bench.corpus, directory / "corpus.jsonl")
    write_queries_file(bench.queries, directory / "queries.tsv")
    write_qrels_file(bench.qrels, directory / "qrels.txt")
    return bench
