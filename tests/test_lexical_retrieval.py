"""BM25 against a brute-force closed-form oracle, plus passage selection."""

import json
import math
import random
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardrank.benchmark import generate_benchmark
from hardrank.corpus_io import Document, Query, rank_records
from hardrank.lexical_retrieval import (
    EARLY_WINDOW,
    Bm25Params,
    bm25_search,
    build_index,
    load_index,
    save_index,
    score_pair,
    select_passage,
)
from hardrank.text import tokenize
import oracles


def oracle_bm25(corpus, query_text, params=Bm25Params()):
    """Direct evaluation of the scoring formula, independent of the index.

    Robertson idf with 0.5 smoothing floored at 0; saturated tf with length
    normalization; sum over distinct query terms.
    """
    token_lists = [tokenize(d.text) for d in corpus]
    n = len(corpus)
    avg = sum(len(toks) for toks in token_lists) / n
    scores = {}
    for doc, toks in zip(corpus, token_lists):
        total = 0.0
        for term in set(tokenize(query_text)):
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in token_lists if term in other)
            idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
            total += idf * tf * (params.k1 + 1) / (
                tf + params.k1 * (1 - params.b + params.b * len(toks) / avg)
            )
        scores[doc.doc_id] = total
    return scores


class TestBuildIndex:
    def test_tokenizer_and_postings(self):
        idx = build_index([Document("d1", "Cats cats dog")])
        assert idx.postings == {"cats": [(0, 2)], "dog": [(0, 1)]}
        assert idx.doc_lengths.tolist() == [3]

    def test_average_length(self):
        idx = build_index([Document("d1", "a b"), Document("d2", "a b c d")])
        assert idx.avg_doc_length == 3.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate doc_id 'd1'"):
            build_index([Document("d2", "c"), Document("d1", "a"), Document("d1", "b")])

    def test_internal_ids_follow_doc_id_order(self):
        idx = build_index([Document("d2", "b c"), Document("d10", "a b"), Document("d1", "b")])
        assert idx.doc_ids == ["d1", "d10", "d2"]
        assert idx.postings == {"a": [(1, 1)], "b": [(0, 1), (1, 1), (2, 1)], "c": [(2, 1)]}


# "a" < "a\x00" as str, though a numpy unicode array calls them equal;
# "d10" sorts before "d2", and the non-ASCII ids compare by code point
RANKED_IDS = ["a", "a\x00", "B", "d1", "d10", "d2", "é", "Ω", "ß", "a\u0301"]


class TestRanked:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(
            st.sampled_from(RANKED_IDS),
            st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                      st.floats(allow_nan=False, allow_infinity=False)),
        ), unique_by=lambda p: p[0]),
        st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_order_equals_the_key_tuple_sort(self, pairs, k):
        # float.hex tells 0.0 from -0.0: each document keeps its own score
        index = build_index([Document(doc_id, "x") for doc_id in RANKED_IDS])
        ids = index.internal_id_array([doc_id for doc_id, _ in pairs])
        ranking = index.ranked(ids, np.array([score for _, score in pairs], dtype=float), k)
        expected = sorted(pairs, key=lambda p: (-p[1], p[0]))[:k]
        assert [(r.doc_id, r.score.hex()) for r in ranking] == [
            (d, s.hex()) for d, s in expected
        ]
        assert ranking == rank_records(pairs)[:k]


class TestBm25Search:
    def test_absent_term_returns_empty(self):
        idx = build_index([Document("d1", "cats dog")])
        assert list(bm25_search(idx, Query("q", "zebra"), 10)) == []

    def test_single_doc_corpus_matches_closed_form(self):
        # With N=1 and df=1 the floored idf is 0, so the closed form gives 0
        # and the zero-score exclusion leaves the result empty.
        corpus = [Document("d1", "lean body mass")]
        idx = build_index(corpus)
        oracle = oracle_bm25(corpus, "lean")
        assert oracle["d1"] == 0.0
        assert score_pair(idx, "lean", "d1") == oracle["d1"]
        assert list(bm25_search(idx, Query("q", "lean"), 5)) == []

    def test_k1_returns_argmax_doc(self):
        corpus = [
            Document("d1", "solar panels convert light"),
            Document("d2", "solar solar solar energy"),
            Document("d3", "wind turbines spin"),
        ]
        idx = build_index(corpus)
        oracle = oracle_bm25(corpus, "solar energy")
        best = max(sorted(oracle), key=lambda d: oracle[d])
        hits = bm25_search(idx, Query("q", "solar energy"), 1)
        assert len(hits) == 1
        assert hits[0].doc_id == best

    def test_scores_match_oracle_within_1e12_relative(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(30)]
        corpus = [
            Document(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(3, 40))))
            for i in range(25)
        ]
        idx = build_index(corpus)
        for trial in range(20):
            q_text = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            oracle = oracle_bm25(corpus, q_text)
            hits = bm25_search(idx, Query("q", q_text), 100)
            for rec in hits:
                expected = oracle[rec.doc_id]
                assert rec.score == pytest.approx(expected, rel=1e-12)
            # every positive-scoring doc is returned, zero-scoring excluded
            positive = {d for d, s in oracle.items() if s > 0}
            assert {rec.doc_id for rec in hits} == positive

    def test_results_sorted_non_increasing(self):
        corpus = [Document(f"d{i}", "apple banana " * (i + 1)) for i in range(5)]
        idx = build_index(corpus)
        hits = bm25_search(idx, Query("q", "apple"), 10)
        scores = [rec.score for rec in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(s > 0 for s in scores)

    def test_tie_breaks_by_doc_id(self):
        corpus = [
            Document("b", "apple pie"),
            Document("a", "apple pie"),
            Document("c", "other words entirely"),
            Document("d", "more unrelated filler"),
            Document("e", "yet more unrelated text"),
        ]
        idx = build_index(corpus)
        hits = bm25_search(idx, Query("q", "apple"), 10)
        assert [rec.doc_id for rec in hits] == ["a", "b"]

    def test_k_must_be_positive(self):
        idx = build_index([Document("d1", "a")])
        with pytest.raises(ValueError):
            bm25_search(idx, Query("q", "a"), 0)


def oracle_search(corpus, query_text, k, params):
    """The search as plain Python over the texts: a dict accumulator that
    adds each document's term contributions in sorted-term order, then a
    full sort by (-score, doc_id) before keeping the top k."""
    counts = [Counter(tokenize(d.text)) for d in corpus]
    lengths = [sum(c.values()) for c in counts]
    n = len(corpus)
    avg = sum(lengths) / n
    scores = {}
    for term in sorted(set(tokenize(query_text))):
        df = sum(1 for c in counts if term in c)
        idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
        if idf == 0.0:
            continue
        for doc, c, length in zip(corpus, counts, lengths):
            tf = c.get(term, 0)
            if tf:
                norm = params.k1 * (1.0 - params.b + params.b * length / avg)
                contribution = idf * tf * (params.k1 + 1.0) / (tf + norm)
                scores[doc.doc_id] = scores.get(doc.doc_id, 0.0) + contribution
    ranked = sorted(
        ((d, s) for d, s in scores.items() if s > 0.0), key=lambda pair: (-pair[1], pair[0])
    )
    return [(d, s.hex()) for d, s in ranked[:k]]


_COMMON = "the"  # in most documents: df > N/2, so its idf is 0
_SEARCH_WORDS = ["solar", "Wind", "grid", "x2", "42", "power", "café", "ΟΔΟΣ", "rain", "fog"]
_UNKNOWN = ["zebra", "quagga"]


@st.composite
def search_cases(draw):
    words = st.sampled_from(_SEARCH_WORDS)
    texts = draw(st.lists(st.lists(words, max_size=6).map(" ".join), min_size=1, max_size=10))
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))  # copies tie
    texts = [f"{_COMMON} {text}" if i % 4 else text for i, text in enumerate(texts)]
    # "d10" sorts before "d2", so sorted doc_id order is not index order
    numbers = draw(st.permutations(range(1, 14)))
    corpus = [Document(f"d{j}", text) for j, text in zip(numbers, texts)]
    query = " ".join(draw(st.lists(st.sampled_from(_SEARCH_WORDS + _UNKNOWN + [_COMMON]),
                                   max_size=8)))
    k = draw(st.integers(1, len(corpus) + 2))
    params = Bm25Params(k1=draw(st.floats(0.1, 3.0)), b=draw(st.floats(0.0, 1.0)))
    return corpus, query, k, params


def _hex_records(records):
    return [(rec.doc_id, rec.score.hex()) for rec in records]


class TestBm25SearchExactness:
    """bm25_search gives the oracle's documents in the oracle's order, with
    the same bits in every score, before and after a save and reload."""

    @settings(max_examples=300, deadline=None)
    @given(search_cases())
    def test_equals_the_python_oracle_bit_for_bit(self, case):
        corpus, query, k, params = case
        index = build_index(corpus)
        found = bm25_search(index, Query("q", query), k, params)
        assert _hex_records(found) == oracle_search(corpus, query, k, params)
        assert all(type(rec.score) is float for rec in found)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "index.json"
            save_index(index, path)
            reloaded = bm25_search(load_index(path), Query("q", query), k, params)
        assert _hex_records(reloaded) == _hex_records(found)

    def test_ties_zero_idf_unknown_terms_and_k(self):
        # d10 and d9 tie and "d10" sorts first; 'the' is in 5 of 7 documents,
        # so its idf is 0; 'zebra' is in none
        corpus = [
            Document("d9", "the solar grid"),
            Document("d10", "the solar grid"),
            Document("d2", "the wind"),
            Document("d1", "solar solar"),
            Document("d3", "the rain"),
            Document("d4", "snow"),
            Document("d5", "the fog"),
        ]
        index = build_index(corpus)
        assert index.idf("the") == 0.0
        query = "the solar grid zebra"
        for k in (1, 2, 3, 4, 10):
            found = bm25_search(index, Query("q", query), k)
            assert _hex_records(found) == oracle_search(corpus, query, k, Bm25Params())
        assert [rec.doc_id for rec in found] == ["d10", "d9", "d1"]
        assert found[0].score == found[1].score
        assert list(bm25_search(index, Query("q", "the zebra"), 5)) == []


class TestSelectPassage:
    def test_short_doc_returned_whole(self):
        doc = Document("d1", "lean body mass")
        passage, matched = select_passage(doc, Query("q", "lean mass"), window=10)
        assert passage == "lean body mass"
        assert matched == 2

    def test_terms_in_second_half_select_second_half(self):
        filler = " ".join(f"x{i}" for i in range(40))
        tail = "lean body mass explained simply"
        doc = Document("d1", filler + " " + tail)
        passage, matched = select_passage(doc, Query("q", "lean body mass"), window=10)
        assert "lean" in passage
        assert matched == 3
        assert "x0" not in passage

    def test_argmax_on_distinct_matches(self):
        doc = Document(
            "d1",
            "alpha filler filler filler filler filler filler filler "
            "alpha beta gamma filler filler filler filler filler",
        )
        passage, matched = select_passage(doc, Query("q", "alpha beta gamma"), window=8)
        assert matched == 3
        assert "beta" in passage and "gamma" in passage

    def test_output_is_contiguous_span(self):
        rng = random.Random(3)
        words = [f"w{rng.randint(0, 15)}" for _ in range(200)]
        doc = Document("d1", " ".join(words))
        passage, _ = select_passage(doc, Query("q", "w3 w7 w11"), window=16)
        assert passage in doc.text

    def test_earliest_window_wins_full_tie(self):
        doc = Document("d1", "apple x x x x x x x apple y y y y y y y")
        passage, matched = select_passage(doc, Query("q", "apple"), window=8)
        assert matched == 1
        assert passage.startswith("apple x")

    def test_equal_counts_tie_whatever_the_hash_seed(self, child_env):
        # windows of 6 start at tokens 0, 3 and 6; in each text the first
        # and a later one match a, b and c with counts {1, 1, 2}, whose
        # saturated masses a plain sum rounds differently in different orders
        code = (
            "from hardrank.corpus_io import Document, Query\n"
            "from hardrank.lexical_retrieval import select_passage\n"
            "for text in ('a b c c x y a a b c z w', 'a a b c x y a b c c z w'):\n"
            "    print(select_passage(Document('d', text), Query('q', 'a b c'), window=6))\n"
        )
        for seed in range(8):
            child = subprocess.run(
                [sys.executable, "-c", code], env={**child_env, "PYTHONHASHSEED": str(seed)},
                capture_output=True, text=True, check=True,
            )
            assert child.stdout.splitlines() == ["('a b c c x y', 3)", "('a a b c x y', 3)"], seed

    @pytest.mark.parametrize("text", ["", "   ", "-- !!"])
    def test_document_without_tokens_has_no_passage(self, text):
        assert select_passage(Document("d1", text), Query("q", "apple")) == ("", 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda window: st.tuples(
        st.just(window),
        # few words, so windows often tie on both keys
        st.lists(st.tuples(st.sampled_from(["apple", "Berry", "x", "y", "7"]),
                           st.sampled_from([" ", ", ", " -- "])),
                 min_size=window + 1, max_size=4 * window + 3),
        st.lists(st.sampled_from(["apple", "berry", "x", "zebra"]), max_size=4),
    )))
    def test_equals_the_sliding_loop_on_documents_longer_than_the_window(self, case):
        window, words, query_words = case
        doc = Document("d1", "".join(word + sep for word, sep in words))
        query = Query("q", " ".join(query_words))
        assert select_passage(doc, query, window) == oracles.select_passage(doc, query, window)


_MISSING = object()  # a header field deleted from the file, not set to a value
_WORDS = st.sampled_from(["alpha", "Beta", "gamma", "x", "7"])
_TEXTS = st.one_of(
    st.sampled_from(["", "-- !?"]),  # documents with no tokens
    st.lists(_WORDS, max_size=30).map(" ".join),  # repeated terms, past the lead window
)
_SECTIONS = {"df": "<i8", "ids": "<i8", "tfs": "<i8", "leads": "u1"}  # in file order


def _decode(data: bytes) -> dict:
    """The header fields of a version 7 file and its four sections as
    lists: the columns a version 5 file held. `df` holds one value per
    term, each other section sum(df) values."""
    head, _, body = data.partition(b"\n")
    payload = json.loads(head)
    count, offset = len(payload["terms"]), 0
    for name, dtype in _SECTIONS.items():
        column = np.frombuffer(body, dtype, count, offset)
        payload[name], offset = column.tolist(), offset + column.nbytes
        count = sum(payload["df"])
    assert offset == len(body)
    return payload


def _encode(payload: dict) -> bytes:
    """The bytes of a payload laid out as `_decode` gives it: its other
    fields as the header line, then its sections, whatever their lengths."""
    header = {key: value for key, value in payload.items() if key not in _SECTIONS}
    return b"".join([
        json.dumps(header).encode(), b"\n",
        *(np.array(payload[name], dtype=dtype).tobytes() for name, dtype in _SECTIONS.items()),
    ])


class TestIndexPersistence:
    def test_roundtrip(self, tmp_path):
        corpus = [Document("d1", "a b c"), Document("d2", "b c d e")]
        idx = build_index(corpus)
        path = tmp_path / "index.bin"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded.postings == idx.postings
        assert loaded.doc_ids == idx.doc_ids
        assert loaded.doc_lengths.tolist() == idx.doc_lengths.tolist() == [3, 4]
        assert loaded.avg_doc_length == idx.avg_doc_length
        assert loaded.leads.tolist() == idx.leads.tolist() == [True] * 7

    def test_layout(self, tmp_path):
        # a JSON header line, then df, ids and tfs as little-endian int64
        # and the lead flags as one byte each, nothing between or after
        path = tmp_path / "index.bin"
        save_index(build_index([Document("d1", "a b c"), Document("d2", "b c d e")]), path)
        header = {
            "format": "hardrank-index", "version": 7, "doc_ids": ["d1", "d2"],
            "terms": ["a", "b", "c", "d", "e"],
        }
        assert path.read_bytes() == b"".join([
            json.dumps(header).encode(), b"\n",
            struct.pack("<5q", 1, 2, 2, 1, 1),
            struct.pack("<7q", 0, 0, 1, 0, 1, 1, 1),
            struct.pack("<7q", 1, 1, 1, 1, 1, 1, 1),
            bytes([1] * 7),
        ])
        assert _encode(_decode(path.read_bytes())) == path.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_TEXTS, min_size=1, max_size=8))
    def test_roundtrip_any_corpus(self, texts):
        idx = build_index([Document(f"d{i}", text) for i, text in enumerate(texts)])
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "index.bin"
            save_index(idx, path)
            loaded = load_index(path)
        assert loaded.postings == idx.postings
        assert loaded.doc_ids == idx.doc_ids
        assert loaded.doc_lengths.tolist() == idx.doc_lengths.tolist()
        assert loaded.leads.tolist() == idx.leads.tolist()
        # derived on load, not stored: the same bits as at build time
        assert struct.pack("<d", loaded.avg_doc_length) == struct.pack("<d", idx.avg_doc_length)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        # and texts around the lead window's end, from enough words that a
        # term first seen there is common
        st.one_of(_TEXTS, st.lists(st.sampled_from([f"w{i}" for i in range(30)]),
                                   min_size=EARLY_WINDOW - 2,
                                   max_size=EARLY_WINDOW + 10).map(" ".join)),
        min_size=1, max_size=8,
    ))
    def test_lead_flags_and_lengths_follow_the_text(self, texts):
        corpus = [Document(f"d{i}", text) for i, text in enumerate(texts)]
        built = build_index(corpus)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "index.bin"
            save_index(built, path)
            loaded = load_index(path)
        for index in (built, loaded):
            assert index.leads.dtype == bool and not index.leads.flags.writeable
            tokens = [tokenize(corpus[int(doc_id[1:])].text) for doc_id in index.doc_ids]
            assert index.doc_lengths.tolist() == list(map(len, tokens))
            ids, leads = index.ids.tolist(), index.leads.tolist()
            for term, (start, end) in index.spans.items():
                for at in range(start, end):
                    assert leads[at] == (term in tokens[ids[at]][:EARLY_WINDOW])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bytes_do_not_depend_on_corpus_order(self, tmp_path, seed):
        corpus = generate_benchmark().corpus
        shuffled = random.Random(seed).sample(corpus, len(corpus))
        assert shuffled != corpus
        in_file_order, in_shuffled_order = tmp_path / "file_order.bin", tmp_path / "shuffled.bin"
        save_index(build_index(corpus), in_file_order)
        save_index(build_index(shuffled), in_shuffled_order)
        assert in_shuffled_order.read_bytes() == in_file_order.read_bytes()

    def test_saving_twice_gives_the_same_bytes(self, tmp_path):
        index = build_index(generate_benchmark().corpus)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_index(index, first)
        save_index(load_index(first), second)
        save_index(index, first)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_index(path)


class TestLoadIndexRejectsUntrustedFiles:
    """Tf lookups binary-search the postings, so a file that breaks their
    invariants is refused with its path, never read.

    The saved index has terms a b c d e with df 1 2 2 1 1, so its ids
    column is [0, 0, 1, 0, 1, 1, 1]: 'b' holds ids[1:3], 'c' ids[3:5] and
    'e' the last id. Every tf and every lead flag is 1. Its header line
    ends at `_header_end`; then come 40 bytes of df, 56 of ids, 56 of tfs
    and 7 of lead flags.
    """

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(build_index([Document("d1", "a b c"), Document("d2", "b c d e")]), path)
        return path

    def _rewrite(self, path, edit):
        """Edit the decoded payload and write it back in version 7's layout."""
        payload = _decode(path.read_bytes())
        edit(payload)
        path.write_bytes(_encode(payload))

    def _rewrite_as_json(self, path, edit):
        """Edit the decoded payload and write it as one JSON record, as
        versions 1 to 5 stored an index."""
        payload = _decode(path.read_bytes())
        edit(payload)
        path.write_text(json.dumps(payload))

    @staticmethod
    def _header_end(path) -> int:
        return path.read_bytes().index(b"\n") + 1

    def test_postings_not_strictly_ascending(self, saved):
        self._rewrite(saved, lambda p: p["ids"].__setitem__(slice(1, 3), [1, 0]))
        with pytest.raises(ValueError, match=r"index\.bin.*'b'.*ascending"):
            load_index(saved)

    def test_duplicate_id_in_postings(self, saved):
        def add_second_posting_of_d2_to_c(p):
            p["ids"].insert(5, 1)
            p["tfs"].insert(5, 1)
            p["leads"].insert(5, 1)
            p["df"][2] += 1

        self._rewrite(saved, add_second_posting_of_d2_to_c)
        with pytest.raises(ValueError, match=r"index\.bin.*'c'.*ascending"):
            load_index(saved)

    @pytest.mark.parametrize("bad_id", [-1, 2])
    def test_postings_id_out_of_range(self, saved, bad_id):
        self._rewrite(saved, lambda p: p["ids"].__setitem__(-1, bad_id))
        with pytest.raises(ValueError, match=r"index\.bin.*'e'.*outside \[0, 2\)"):
            load_index(saved)

    def test_version_2_file_must_be_rebuilt(self, saved):
        # the format that stored one [id, tf] list per posting and the average length
        index = load_index(saved)
        saved.write_text(json.dumps({
            "format": "hardrank-index",
            "version": 2,
            "doc_ids": index.doc_ids,
            "doc_lengths": index.doc_lengths.tolist(),
            "avg_doc_length": index.avg_doc_length,
            "lead_terms": ["a b c", "b c d e"],
            "postings": index.postings,
        }))
        with pytest.raises(ValueError, match=r"index\.bin has version 2, not 7.*hardrank index --force"):
            load_index(saved)

    def test_version_3_file_must_be_rebuilt(self, saved):
        # the version 4 columns, with doc_ids in the corpus's order rather than sorted
        def corpus_order(p):
            p.update(version=3, doc_ids=p["doc_ids"][::-1], doc_lengths=[4, 3],
                     lead_terms=["b c d e", "a b c"])
            del p["leads"]

        self._rewrite_as_json(saved, corpus_order)
        with pytest.raises(ValueError, match=r"index\.bin has version 3, not 7.*index --force"):
            load_index(saved)

    def test_version_4_file_must_be_rebuilt(self, saved):
        # the format that stored each document's length and lead terms, not a lead flag per posting
        def per_document_columns(p):
            p.update(version=4, doc_lengths=[3, 4], lead_terms=["a b c", "b c d e"])
            del p["leads"]

        self._rewrite_as_json(saved, per_document_columns)
        with pytest.raises(ValueError, match=r"index\.bin has version 4, not 7.*hardrank index --force"):
            load_index(saved)

    def test_version_5_file_must_be_rebuilt(self, saved):
        # the same six columns, all in one JSON record
        self._rewrite_as_json(saved, lambda p: p.update(version=5))
        assert saved.read_bytes().count(b"\n") == 0
        with pytest.raises(ValueError, match=r"index\.bin has version 5, not 7; rebuild it with `hardrank index --force`"):
            load_index(saved)

    def test_version_6_file_must_be_rebuilt(self, saved):
        # the same header and sections, with a `lengths` object counting each section's values
        def with_lengths(p):
            p.update(version=6, lengths={name: len(p[name]) for name in _SECTIONS})

        self._rewrite(saved, with_lengths)
        with pytest.raises(ValueError, match=r"index\.bin has version 6, not 7; rebuild it with `hardrank index --force`"):
            load_index(saved)

    @pytest.mark.parametrize("column", ["doc_ids", "terms"])
    @pytest.mark.parametrize("value", [_MISSING, None, {"0": 1}], ids=["missing", "null", "object"])
    def test_column_missing_or_not_a_list(self, saved, column, value):
        def edit(p):
            if value is _MISSING:
                del p[column]
            else:
                p[column] = value

        self._rewrite(saved, edit)
        with pytest.raises(ValueError, match=rf"index\.bin: {column} is not a list"):
            load_index(saved)

    @pytest.mark.parametrize(
        "column, position, value, message",
        [
            ("tfs", 1, 0, r"postings of term 'b' hold a tf below 1"),
            ("tfs", -1, -3, r"postings of term 'e' hold a tf below 1"),
            ("df", 0, 0, r"df holds a count below 1"),
            ("df", -1, -2, r"df holds a count below 1"),
            ("leads", 2, 2, r"postings of term 'b' hold a lead flag other than 0 or 1"),
            ("leads", -1, 255, r"postings of term 'e' hold a lead flag other than 0 or 1"),
        ],
    )
    def test_count_out_of_range(self, saved, column, position, value, message):
        self._rewrite(saved, lambda p: p[column].__setitem__(position, value))
        with pytest.raises(ValueError, match=rf"index\.bin: {message}"):
            load_index(saved)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["terms"].append("f"), r"df holds a count below 1"),
            (lambda p: p["terms"].pop(), r"25 trailing bytes after the last section"),
            (lambda p: p["df"].append(1), r"8 trailing bytes after the last section"),
            (lambda p: p["df"].pop(), r"df holds a count below 1"),
            (lambda p: p["df"].__setitem__(0, 2), r"tfs is cut short: 8 values need 64 bytes"),
            (lambda p: p["df"].__setitem__(1, 1), r"17 trailing bytes after the last section"),
            (lambda p: p["ids"].append(1), r"8 trailing bytes after the last section"),
            (lambda p: p["ids"].pop(), r"tfs is cut short: 7 values need 56 bytes"),
            (lambda p: p["tfs"].append(1), r"8 trailing bytes after the last section"),
            (lambda p: p["tfs"].pop(), r"tfs is cut short: 7 values need 56 bytes"),
            (lambda p: p["leads"].pop(), r"leads is cut short: 7 values need 7 bytes"),
            (lambda p: p["leads"].append(0), r"1 trailing bytes after the last section"),
        ],
        ids=["terms_long", "terms_short", "df_long", "df_short", "df_sum_high", "df_sum_low",
             "ids_long", "ids_short", "tfs_long", "tfs_short", "leads_short", "leads_long"],
    )
    def test_postings_columns_disagree(self, saved, edit, message):
        self._rewrite(saved, edit)
        with pytest.raises(ValueError, match=rf"index\.bin: {message}"):
            load_index(saved)

    def test_df_sum_beyond_int64_is_counted_exactly(self, saved):
        # four counts of 2**62 sum to 2**64, which an int64 sum wraps to 0
        self._rewrite(saved, lambda p: p.update(terms=["a", "b", "c", "d"], df=[2**62] * 4,
                                                ids=[], tfs=[], leads=[]))
        with pytest.raises(ValueError, match=rf"index\.bin: ids is cut short: {2**64} values need {2**67} bytes"):
            load_index(saved)

    @pytest.mark.parametrize(
        "doc_ids, message",
        [
            (["d1", 2], r"doc_ids holds a value that is not a string"),
            (["d1", None], r"doc_ids holds a value that is not a string"),
            (["d1", "d1"], r"doc_ids are not strictly ascending"),
            (["d2", "d1"], r"doc_ids are not strictly ascending"),
            ([], r"doc_ids is empty"),
            (["", "d2"], r"doc_ids holds '', which is empty or holds whitespace"),
            (["d1", "d2 x"], r"doc_ids holds 'd2 x', which is empty or holds whitespace"),
            (["d1", "d2\tx"], r"doc_ids holds 'd2\\tx', which is empty or holds whitespace"),
            (["d1", "d2\x1cx"], r"doc_ids holds 'd2\\x1cx', which is empty or holds whitespace"),
        ],
        ids=["int", "null", "duplicate", "unsorted", "empty", "empty_id", "space", "tab",
             "separator"],
    )
    def test_doc_ids_not_ascending_strings(self, saved, doc_ids, message):
        self._rewrite(saved, lambda p: p.__setitem__("doc_ids", doc_ids))
        with pytest.raises(ValueError, match=rf"index\.bin: {message}"):
            load_index(saved)

    @pytest.mark.parametrize(
        "terms, message",
        [
            (["a", "c", "b", "d", "e"], r"terms are not strictly ascending"),
            (["a", "b", "b", "d", "e"], r"terms are not strictly ascending"),
            (["a", 1, "c", "d", "e"], r"terms holds a value that is not a string"),
        ],
        ids=["unsorted", "duplicate", "int"],
    )
    def test_terms_not_ascending_strings(self, saved, terms, message):
        self._rewrite(saved, lambda p: p.__setitem__("terms", terms))
        with pytest.raises(ValueError, match=rf"index\.bin: {message}"):
            load_index(saved)

    def test_version_1_file_must_be_rebuilt(self, saved):
        # the format before the index kept anything of each document's lead
        self._rewrite_as_json(saved, lambda p: (p.update(version=1, doc_lengths=[3, 4]),
                                                p.pop("leads")))
        with pytest.raises(ValueError, match=r"index\.bin has version 1.*hardrank index --force"):
            load_index(saved)

    def test_truncated_json(self, saved):
        saved.write_bytes(saved.read_bytes()[:40])
        with pytest.raises(ValueError, match=r"index\.bin is not valid JSON"):
            load_index(saved)

    @pytest.mark.parametrize(
        "column, cut",
        # bytes after the header line where the file ends: at a section's
        # first byte, or one byte into it
        [("df", -1), ("df", 0), ("df", 1), ("ids", 40), ("ids", 41), ("tfs", 96), ("tfs", 151),
         ("leads", 152), ("leads", 158)],
    )
    def test_section_cut_short(self, saved, column, cut):
        data = saved.read_bytes()
        saved.write_bytes(data[:self._header_end(saved) + cut])
        with pytest.raises(ValueError, match=rf"index\.bin: {column} is cut short"):
            load_index(saved)

    def test_nothing_cut_at_the_full_length(self, saved):
        assert len(saved.read_bytes()) == self._header_end(saved) + 159
        assert load_index(saved).n_docs == 2

    @pytest.mark.parametrize("extra", [b"\x00", b"\n", bytes(8)])
    def test_trailing_bytes(self, saved, extra):
        saved.write_bytes(saved.read_bytes() + extra)
        with pytest.raises(ValueError, match=rf"index\.bin: {len(extra)} trailing bytes after the last section"):
            load_index(saved)

    @pytest.mark.parametrize(
        "sizes, message",
        # bytes after the header line, cut inside each section or beyond the last
        [
            (range(0, 40), r"df is cut short"),
            (range(40, 96), r"ids is cut short"),
            (range(96, 152), r"tfs is cut short"),
            (range(152, 159), r"leads is cut short"),
            ([160, 166, 167, 176], r"{extra} trailing bytes after the last section"),
        ],
        ids=["df", "ids", "tfs", "leads", "extended"],
    )
    def test_every_wrong_size_is_refused(self, saved, sizes, message):
        # the sizes follow from the terms and the df alone: a file cut at
        # any byte after its header line fails naming the section it ends
        # in, one extended by whole or partial values fails on the extra
        # bytes; only the whole file loads
        data, start = saved.read_bytes(), self._header_end(saved)
        for size in sizes:
            saved.write_bytes((data + bytes(17))[:start + size])
            with pytest.raises(ValueError, match=rf"index\.bin: {message.format(extra=size - 159)}"):
                load_index(saved)
        saved.write_bytes(data)
        assert load_index(saved).n_docs == 2
