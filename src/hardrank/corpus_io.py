"""The record types and line formats shared by every stage, and the
atomic file writer.

This module parses and writes the run, qrels, query and corpus files
below. The index, the model files, the enriched-query TSV, the routing log
and the loss curves have their formats in the modules that own them
(`lexical_retrieval`, `linear_model`, `enrichment`, `fusion`, `pipeline`),
but every artifact reaches disk through `write_artifact`, which writes a
temporary file and renames it into place, every text input is read by
`parse_file` and the index by `read_binary_file`.

Formats (one record per line everywhere):

- Run file (TREC 6-column): ``qid Q0 docid rank score tag``
- Qrels: ``qid 0 docid grade``, the grade an integer from 0 to
  ``MAX_GRADE`` (100): nDCG's gain 2^grade - 1 then stays below 2^100, so
  the ideal DCG of fewer than 2^900 judgments (more than any file holds)
  is a finite float, and so is every nDCG of a parsed file.
- Queries: ``qid<TAB>query text``
- Corpus: one JSON object per line with keys ``doc_id`` (a string or an
  integer) and ``text`` (a string)

Query and document ids must be non-empty and hold no whitespace.

Determinism rules shared by all writers:

- Queries of a run are written in ascending qid order; records within a
  query sorted by score descending, ties broken by doc_id ascending. A
  record's rank is its position in the list, written 1..n.
- Scores are rendered with ``repr`` (shortest round-trip decimal), so
  ``parse_run(write_run(r)) == r`` bit-exactly.

Blank lines are skipped with a warning. Duplicate records are errors, never
last-one-wins.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)
MAX_GRADE = 100  # the qrels grade ceiling; see the format list above


class ParseError(ValueError):
    """Malformed or unreadable input; carries the 1-based number of a bad line."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One ranked document, as iterating a `Ranking` yields it; its rank is
    its 1-based position in the list."""

    doc_id: str
    score: float


@dataclass(frozen=True, slots=True, eq=False)
class Ranking:
    """One query's ranked list: its doc ids in rank order and their scores.

    `doc_ids` is a tuple and `scores` a float64 array aligned with it, made
    read-only here. The stages read and write the two fields; iterating
    yields a `RunRecord` per document, built on demand, indexing one gives
    the record at that position and a slice gives a `Ranking`. Two rankings
    are equal when their doc ids and their scores are.
    """

    doc_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        if len(self.doc_ids) != len(self.scores):
            raise ValueError(f"{len(self.doc_ids)} doc ids but {len(self.scores)} scores")
        self.scores.flags.writeable = False

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __iter__(self) -> Iterator[RunRecord]:
        return map(RunRecord, self.doc_ids, self.scores.tolist())

    def __getitem__(self, at):
        if isinstance(at, slice):
            return Ranking(self.doc_ids[at], self.scores[at])
        return RunRecord(self.doc_ids[at], float(self.scores[at]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.doc_ids == other.doc_ids and bool((self.scores == other.scores).all())


@dataclass
class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id).

    The judgments are grouped by query once, at construction, so per-query
    lookups do not scan them all; do not change `judgments` afterwards. A
    grade outside 0..MAX_GRADE raises ValueError naming its pair, so a
    `Qrels` built in memory keeps every nDCG finite, as a parsed one does.
    """

    judgments: dict[tuple[str, str], int] = field(default_factory=dict)
    _by_query: dict[str, dict[str, int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        for (q, d), g in self.judgments.items():
            if not 0 <= g <= MAX_GRADE:
                raise ValueError(f"({q}, {d}): grade {g} outside 0..{MAX_GRADE}")
            self._by_query.setdefault(q, {})[d] = g

    def for_query(self, query_id: str) -> dict[str, int]:
        """doc_id -> grade for one query, as a new dict the caller may change."""
        return dict(self._by_query.get(query_id, {}))

    def query_ids(self) -> list[str]:
        return sorted(self._by_query)

    def has_positive(self, query_id: str, threshold: int = 1) -> bool:
        return any(g >= threshold for g in self._by_query.get(query_id, {}).values())


@dataclass
class RunList:
    """Per-query ranked lists; the common currency between all stages.

    Invariants: within each query, scores are finite and non-increasing
    down the list, and no doc_id repeats.
    """

    entries: dict[str, Ranking] = field(default_factory=dict)
    tag: str = ""

    def query_ids(self) -> list[str]:
        return sorted(self.entries)

    def validate(self) -> None:
        for qid, entry in self.entries.items():
            seen: set[str] = set()
            prev_score = math.inf
            for i, (doc_id, score) in enumerate(zip(entry.doc_ids, entry.scores.tolist()), 1):
                if not math.isfinite(score):
                    raise ValueError(f"{qid}: non-finite score {score!r} at rank {i}")
                if score > prev_score:
                    raise ValueError(f"{qid}: score increases at rank {i}")
                if doc_id in seen:
                    raise ValueError(f"{qid}: duplicate doc_id {doc_id!r}")
                seen.add(doc_id)
                prev_score = score


def rank_records(scored: Iterable[tuple[str, float]]) -> Ranking:
    """Sort (doc_id, score) pairs into a valid ranked list.

    Score descending, ties by doc_id ascending: the order of the key
    `(-score, doc_id)`, built without a key tuple per pair. A stable sort by
    doc_id and then a stable sort by score with `reverse=True` (which keeps
    equal scores in their order) give it, ties and +/-0.0 included.
    """
    import numpy as np

    ordered = sorted(scored, key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    scores = np.fromiter(map(itemgetter(1), ordered), float, len(ordered))
    return Ranking(tuple(map(itemgetter(0), ordered)), scores)


def _iter_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line_no, stripped) for non-blank lines, warning on blanks."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            log.warning("line %d: blank line skipped", line_no)
            continue
        yield line_no, line


def _number(convert, token: str, what: str, line_no: int):
    """`convert(token)` for an ASCII token without `_`: `int` and `float` also
    take `1_0` and non-ASCII digits, which no run or qrels file holds."""
    if token.isascii() and "_" not in token:
        try:
            return convert(token)
        except ValueError:
            pass
    raise ParseError(f"{what} {token!r}", line_no)


def _parse_score(token: str, line_no: int) -> float:
    value = _number(float, token, "non-numeric score", line_no)
    if not math.isfinite(value):
        raise ParseError(f"non-finite score {token!r}", line_no)
    return value


def _check_id(value: str, what: str, line_no: int) -> None:
    """An id must be non-empty and hold no whitespace, which would split its
    field in a run file."""
    if not value:
        raise ParseError(f"empty {what}", line_no)
    if value.split() != [value]:
        raise ParseError(f"{what} {value!r} contains whitespace", line_no)


def parse_run(lines: Iterable[str]) -> RunList:
    """Parse a TREC run file into a RunList.

    Input ranks are checked for being integers but otherwise ignored; each
    query's records are re-sorted by score (ties by doc_id), so the output
    satisfies the RunList invariants regardless of input line order. Doc
    ids are interned, so runs read side by side share one string per
    document rather than holding one per record.
    """
    by_query: dict[str, dict[str, float]] = {}
    tag = ""
    for line_no, line in _iter_lines(lines):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", line_no)
        qid, _q0, doc_id, rank_s, score_s, line_tag = fields
        _number(int, rank_s, "non-numeric rank", line_no)
        score = _parse_score(score_s, line_no)
        scores = by_query.setdefault(qid, {})
        if doc_id in scores:
            raise ParseError(f"duplicate record ({qid}, {doc_id})", line_no)
        scores[sys.intern(doc_id)] = score
        if not tag:
            tag = line_tag
    return RunList(
        entries={qid: rank_records(scores.items()) for qid, scores in by_query.items()},
        tag=tag,
    )


def write_run(run: RunList) -> Iterator[str]:
    """Render a RunList as TREC 6-column lines (no trailing newlines), each
    record's rank its position in its list and the tag the run's, or "run".

    The run is validated now, so an invalid one raises before any line is
    made; the lines are then yielded one at a time, never held together.
    """
    run.validate()
    tag = run.tag or "run"
    return (
        f"{qid} Q0 {doc_id} {rank} {score!r} {tag}"
        for qid in sorted(run.entries)
        for rank, (doc_id, score) in enumerate(
            zip(run.entries[qid].doc_ids, run.entries[qid].scores.tolist()), 1
        )
    )


def parse_qrels(lines: Iterable[str]) -> Qrels:
    """Parse 4-column qrels; duplicate pairs and grades outside 0..MAX_GRADE are errors."""
    judgments: dict[tuple[str, str], int] = {}
    for line_no, line in _iter_lines(lines):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line_no)
        qid, _iteration, doc_id, grade_s = fields
        grade = _number(int, grade_s, "non-integer grade", line_no)
        if not 0 <= grade <= MAX_GRADE:
            raise ParseError(f"grade {grade} outside 0..{MAX_GRADE}", line_no)
        key = (qid, doc_id)
        if key in judgments:
            raise ParseError(f"duplicate judgment ({qid}, {doc_id})", line_no)
        judgments[key] = grade
    return Qrels(judgments)


def write_qrels(qrels: Qrels) -> list[str]:
    return [
        f"{qid} 0 {doc_id} {grade}"
        for (qid, doc_id), grade in sorted(qrels.judgments.items())
    ]


def parse_queries(lines: Iterable[str]) -> list[Query]:
    """Parse ``qid<TAB>text`` lines, preserving file order."""
    queries: list[Query] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            log.warning("line %d: blank line skipped", line_no)
            continue
        if line.count("\t") != 1:
            raise ParseError(
                f"expected exactly one TAB, got {line.count(chr(9))}", line_no
            )
        qid, text = line.split("\t")
        qid = qid.strip()
        text = text.strip()
        _check_id(qid, "query id", line_no)
        if not text:
            raise ParseError(f"empty text for query {qid!r}", line_no)
        if qid in seen:
            raise ParseError(f"duplicate query id {qid!r}", line_no)
        seen.add(qid)
        queries.append(Query(qid, text))
    return queries


def write_queries(queries: Iterable[Query]) -> list[str]:
    return [f"{q.query_id}\t{q.text}" for q in queries]


def parse_corpus(lines: Iterable[str]) -> list[Document]:
    """Parse a JSON-lines corpus with ``doc_id`` and ``text`` per record."""
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, line in _iter_lines(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", line_no) from None
        if not isinstance(record, dict) or "doc_id" not in record or "text" not in record:
            raise ParseError("record must be an object with doc_id and text", line_no)
        doc_id, text = record["doc_id"], record["text"]
        if type(doc_id) not in (str, int):
            kind = type(doc_id).__name__
            raise ParseError(f"doc_id must be a string or an integer, got {kind}", line_no)
        doc_id = str(doc_id)
        _check_id(doc_id, "doc_id", line_no)
        if not isinstance(text, str):
            kind = type(text).__name__
            raise ParseError(f"text of doc_id {doc_id!r} must be a string, got {kind}", line_no)
        if doc_id in seen:
            raise ParseError(f"duplicate doc_id {doc_id!r}", line_no)
        seen.add(doc_id)
        docs.append(Document(doc_id=doc_id, text=text))
    return docs


def write_corpus(docs: Iterable[Document]) -> list[str]:
    return [json.dumps({"doc_id": d.doc_id, "text": d.text}, sort_keys=True) for d in docs]


# Path-based conveniences. Writers end the file with a newline.


def write_artifact(path, data: str | bytes) -> None:
    """Write `data` to `path`, text as UTF-8 and bytes as they are, all or
    nothing.

    Missing parent directories are created. The data goes to a temporary
    file in the same directory, which `os.replace` then moves over `path`,
    so a write that fails or is interrupted leaves the previous file as it
    was. Raises ValueError naming the path when `path` is a directory or a
    file stands where one of its directories goes.
    """
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"{path} is a directory, not a file")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"{path}: a file stands where a directory goes") from None
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data if isinstance(data, bytes) else data.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _reading(path):
    """Raise a read of `path` that fails as the one ParseError naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not UTF-8
        raise ParseError(f"{path} cannot be read: {getattr(exc, 'strerror', exc)}") from None


def read_binary_file(path) -> bytes:
    """The bytes of the file `path`, in one read; ParseError naming it if it cannot be read."""
    with _reading(path), open(path, "rb") as fh:
        return fh.read()


def parse_file(parse, path):
    """`parse` the lines of the UTF-8 file `path`, less one leading BOM, as
    text-mode `readlines()` splits them. A file that cannot be read or is not
    UTF-8 raises ParseError naming the path; a ParseError from `parse` keeps
    its class and `line_no`, and its message gains the path."""
    with _reading(path), open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    try:
        return parse(lines)
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def write_lines(path, lines: Iterable[str]) -> None:
    write_artifact(path, "".join(f"{line}\n" for line in lines))


def read_run_file(path) -> RunList:
    return parse_file(parse_run, path)


def write_run_file(run: RunList, path) -> None:
    write_lines(path, write_run(run))


def read_qrels_file(path) -> Qrels:
    return parse_file(parse_qrels, path)


def write_qrels_file(qrels: Qrels, path) -> None:
    write_lines(path, write_qrels(qrels))


def read_queries_file(path) -> list[Query]:
    return parse_file(parse_queries, path)


def write_queries_file(queries: Iterable[Query], path) -> None:
    write_lines(path, write_queries(queries))


def read_corpus_file(path) -> list[Document]:
    return parse_file(parse_corpus, path)


def write_corpus_file(docs: Iterable[Document], path) -> None:
    write_lines(path, write_corpus(docs))


def corpus_by_id(docs: Iterable[Document]) -> dict[str, Document]:
    """Index a document list by doc_id."""
    return {doc.doc_id: doc for doc in docs}
