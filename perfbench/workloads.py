"""Workload inputs, generated from one seed with the package's own generator.

`generate_benchmark(seed)` builds one 200-document / 40-query sub-corpus
with 20 easy topics (`e00`..`e19`) and 20 hard ones (`h00`..`h19`), one
query per topic. A scaled workload concatenates the sub-corpora of seeds
`seed`, `seed + 1`, ... and prefixes every document and query id with
`s<sub-seed>-` so ids stay unique. Even-numbered topics train and
odd-numbered topics test; the hard slice is the generator's
`hard_query_ids`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from hardrank import benchmark, corpus_io
from hardrank.corpus_io import Document, Qrels, Query
from hardrank.text import STOPWORDS, tokenize

README_SEED = 7
EXTRA_TERMS = 2


@dataclass
class Inputs:
    corpus: list[Document]
    train_queries: list[Query]
    test_queries: list[Query]
    train_qrels: Qrels
    test_qrels: Qrels
    hard_query_ids: frozenset[str]

    @property
    def hard_test_ids(self) -> list[str]:
        return sorted(q.query_id for q in self.test_queries if q.query_id in self.hard_query_ids)

    def properties(self) -> dict:
        return {
            "docs": len(self.corpus),
            "train_queries": len(self.train_queries),
            "test_queries": len(self.test_queries),
            "hard_share": len(self.hard_test_ids) / len(self.test_queries),
        }


def readme_inputs() -> Inputs:
    """The README experiment: seed 7, in-sample (train and test are the same)."""
    bench = benchmark.generate_benchmark(README_SEED)
    return Inputs(
        corpus=bench.corpus,
        train_queries=bench.queries,
        test_queries=bench.queries,
        train_qrels=bench.qrels,
        test_qrels=bench.qrels,
        hard_query_ids=frozenset(bench.hard_query_ids),
    )


def _topic_is_even(query_id: str) -> bool:
    return int(query_id[1:]) % 2 == 0


def scaled_inputs(seed: int, n_seeds: int, extend_test: bool = False) -> Inputs:
    """Concatenate `n_seeds` sub-corpora and split them by topic parity.

    With `extend_test`, every test query gets EXTRA_TERMS non-stopword terms
    drawn (with `seed`) from the token stream of its own sub-corpus, so
    BM25 candidate lists fill the rerank depth.
    """
    rng = random.Random(seed)
    corpus: list[Document] = []
    train: list[Query] = []
    test: list[Query] = []
    train_j: dict[tuple[str, str], int] = {}
    test_j: dict[tuple[str, str], int] = {}
    hard: set[str] = set()
    for sub_seed in range(seed, seed + n_seeds):
        bench = benchmark.generate_benchmark(sub_seed)
        prefix = f"s{sub_seed}-"
        corpus.extend(Document(prefix + d.doc_id, d.text) for d in bench.corpus)
        hard.update(prefix + qid for qid in bench.hard_query_ids)
        pool = [t for d in bench.corpus for t in tokenize(d.text) if t not in STOPWORDS]
        is_train = {q.query_id: _topic_is_even(q.query_id) for q in bench.queries}
        for q in bench.queries:
            if is_train[q.query_id]:
                train.append(Query(prefix + q.query_id, q.text))
                continue
            text = q.text
            if extend_test:
                text = " ".join([text] + [rng.choice(pool) for _ in range(EXTRA_TERMS)])
            test.append(Query(prefix + q.query_id, text))
        for (qid, doc_id), grade in bench.qrels.judgments.items():
            target = train_j if is_train[qid] else test_j
            target[(prefix + qid, prefix + doc_id)] = grade
    return Inputs(corpus, train, test, Qrels(train_j), Qrels(test_j), frozenset(hard))


def write_inputs(inputs: Inputs, directory: Path) -> Path:
    """Write the input files plus a README-style config; return the config path.

    Data paths in the config are absolute and artifact paths relative, so a
    copy of the directory reads these inputs and writes its own artifacts.
    """
    directory.mkdir(parents=True, exist_ok=True)
    corpus_io.write_corpus_file(inputs.corpus, directory / "corpus.jsonl")
    corpus_io.write_queries_file(inputs.train_queries, directory / "train_queries.tsv")
    corpus_io.write_queries_file(inputs.test_queries, directory / "test_queries.tsv")
    corpus_io.write_qrels_file(inputs.train_qrels, directory / "train_qrels.txt")
    corpus_io.write_qrels_file(inputs.test_qrels, directory / "test_qrels.txt")
    config = {
        "paths": {
            "corpus": str(directory / "corpus.jsonl"),
            "train_queries": str(directory / "train_queries.tsv"),
            "train_qrels": str(directory / "train_qrels.txt"),
            "test_queries": str(directory / "test_queries.tsv"),
            "test_qrels": str(directory / "test_qrels.txt"),
        },
        "enrichment": {"use_judged_context": True},
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return config_path
