"""Parser/writer round-trips and error handling for all file formats."""

import ast
import json
import math
import os
import random
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardrank.corpus_io import (
    MAX_GRADE,
    Document,
    ParseError,
    Qrels,
    Query,
    Ranking,
    RunList,
    RunRecord,
    parse_corpus,
    parse_file,
    parse_qrels,
    parse_queries,
    parse_run,
    rank_records,
    read_corpus_file,
    read_qrels_file,
    read_queries_file,
    read_run_file,
    write_corpus,
    write_qrels,
    write_queries,
    write_artifact,
    write_queries_file,
    write_run,
)
from hardrank.enrichment import parse_enriched
from hardrank.evaluation import ndcg_at_k
from hardrank.lexical_retrieval import build_index, save_index
from hardrank.linear_model import LogisticScorer, save_scorer
from test_blas_sites import unallowed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hardrank"


class TestParseRun:
    def test_single_line(self):
        run = parse_run(["q1 Q0 d7 1 12.5 bm25"])
        assert {qid: list(entry) for qid, entry in run.entries.items()} == {
            "q1": [RunRecord("d7", 12.5)]
        }
        assert run.tag == "bm25"

    def test_resorts_by_score_descending(self):
        run = parse_run(["q1 Q0 a 1 3.0 t", "q1 Q0 b 2 9.0 t"])
        assert list(run.entries["q1"]) == [RunRecord("b", 9.0), RunRecord("a", 3.0)]

    def test_non_numeric_rank_is_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_run(["q1 Q0 d7 one 12.5 t"])
        assert exc.value.line_no == 1

    def test_non_numeric_score_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_run(["q1 Q0 d7 1 twelve t"])

    @pytest.mark.parametrize("rank, score, message", [
        ("1_0", "0.5", "non-numeric rank '1_0'"),
        ("\u0663", "0.5", "non-numeric rank '\u0663'"),
        ("1", "1_0.5", "non-numeric score '1_0.5'"),
        ("1", "\u0663.5", "non-numeric score '\u0663.5'"),
        ("1", "\uff11.5", "non-numeric score '\uff11.5'"),
    ])
    def test_underscore_or_non_ascii_digit_is_parse_error(self, rank, score, message):
        # int() and float() take both; no run file writes either
        with pytest.raises(ParseError, match=message) as info:
            parse_run(["q1 Q0 d0 1 1.0 t", f"q1 Q0 d1 {rank} {score} t"])
        assert info.value.line_no == 2

    @pytest.mark.parametrize("score", [1e-05, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 12.0])
    def test_every_form_repr_writes_parses(self, score):
        parsed = parse_run([f"q1 Q0 d1 1 {score!r} t"]).entries["q1"].scores
        assert parsed.tobytes() == np.array([score]).tobytes()

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_run(["ok Q0 d1 1 1.0 t", "q1 Q0 d7 1 12.5"])
        assert exc.value.line_no == 2

    def test_duplicate_doc_for_query(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_run(["q1 Q0 d7 1 12.5 t", "q1 Q0 d7 2 3.0 t"])

    def test_score_ties_break_by_doc_id(self):
        run = parse_run(["q1 Q0 zz 1 5.0 t", "q1 Q0 aa 2 5.0 t"])
        assert [r.doc_id for r in run.entries["q1"]] == ["aa", "zz"]

    def test_blank_lines_skipped(self):
        run = parse_run(["", "q1 Q0 d1 1 1.0 t", "   "])
        assert len(run.entries["q1"]) == 1

    def test_non_finite_score_rejected(self):
        with pytest.raises(ParseError):
            parse_run(["q1 Q0 d1 1 nan t"])

    def test_invariants_hold_regardless_of_input_order(self):
        lines = [
            "q2 Q0 x 9 1.0 t",
            "q1 Q0 m 5 2.0 t",
            "q1 Q0 n 1 7.0 t",
            "q2 Q0 y 2 4.0 t",
        ]
        run = parse_run(lines)
        run.validate()
        assert [r.doc_id for r in run.entries["q1"]] == ["n", "m"]

    def test_runs_share_doc_id_strings(self):
        # Built at run time so the two lines hold distinct "doc-42" objects.
        doc_id = "-".join(["doc", "42"])
        first = parse_run([f"q1 Q0 {doc_id} 1 2.0 br"])
        second = parse_run([f"q1 Q0 {doc_id} 1 3.0 sr"])
        assert first.entries["q1"][0].doc_id is second.entries["q1"][0].doc_id


class TestRankRecords:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["a", "a\x00", "b", "B", "d2", "d10", "d1", "é", "Ω"]),
        st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                  st.floats(allow_nan=False, allow_infinity=False)),
    )))
    def test_order_equals_the_key_tuple_sort(self, pairs):
        # few distinct ids and scores, so ties and repeated pairs are common;
        # float.hex tells 0.0 from -0.0, so equal keys must keep input order;
        # ids compare as str: "a" < "a\x00", and non-ASCII by code point
        expected = sorted(pairs, key=lambda p: (-p[1], p[0]))
        got = rank_records(iter(pairs))
        assert [(r.doc_id, r.score.hex()) for r in got] == [(d, s.hex()) for d, s in expected]


class TestWriteRun:
    def test_single_record(self):
        run = RunList(entries={"q1": Ranking(("d7",), np.array([12.5]))}, tag="bsf")
        assert list(write_run(run)) == ["q1 Q0 d7 1 12.5 bsf"]

    def test_empty_run(self):
        assert list(write_run(RunList(tag="t"))) == []

    def test_invalid_run_rejected(self):
        run = RunList(entries={"q1": Ranking(("d7", "d8"), np.array([12.5, 13.0]))}, tag="t")
        with pytest.raises(ValueError):
            write_run(run)

    def test_duplicate_doc_id_rejected_naming_query(self):
        run = RunList(entries={"q1": Ranking(("d7", "d7"), np.array([2.0, 1.0]))}, tag="t")
        with pytest.raises(ValueError, match="q1: duplicate doc_id 'd7'"):
            write_run(run)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected_naming_query_and_rank(self, bad):
        # the run reader refuses it, so the writer must not write it
        run = RunList(entries={"q1": Ranking(("d7", "d8"), np.array([12.5, bad]))}, tag="t")
        with pytest.raises(ValueError, match=r"q1: non-finite score .* at rank 2"):
            write_run(run)

    def test_roundtrip_random_100_lines(self):
        rng = random.Random(42)
        entries = {}
        for qid in (f"q{i}" for i in range(10)):
            pairs = [(f"d{j}", rng.uniform(-50, 50)) for j in rng.sample(range(1000), 10)]
            entries[qid] = rank_records(pairs)
        run = RunList(entries=entries, tag="rand")
        assert parse_run(write_run(run)) == run

    @settings(max_examples=50)
    @given(
        st.dictionaries(
            st.from_regex(r"q[0-9]{1,3}", fullmatch=True),
            st.lists(
                st.tuples(
                    st.from_regex(r"d[0-9]{1,4}", fullmatch=True),
                    st.floats(-1e6, 1e6, allow_nan=False),
                ),
                min_size=1,
                max_size=8,
                unique_by=lambda p: p[0],
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_roundtrip_property(self, raw):
        run = RunList(
            entries={qid: rank_records(pairs) for qid, pairs in raw.items()},
            tag="hyp",
        )
        assert parse_run(write_run(run)) == run


class TestQrels:
    def test_parse(self):
        qrels = parse_qrels(["q1 0 d7 2"])
        assert qrels.judgments == {("q1", "d7"): 2}

    def test_duplicate_is_error_not_last_wins(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_qrels(["q1 0 d7 2", "q1 0 d7 1"])

    def test_non_integer_grade(self):
        with pytest.raises(ParseError):
            parse_qrels(["q1 0 d7 x"])

    @pytest.mark.parametrize("grade", ["1_0", "\u0663", "\uff11"])
    def test_underscore_or_non_ascii_digit_grade_is_parse_error(self, grade):
        with pytest.raises(ParseError, match=f"non-integer grade '{grade}'") as info:
            parse_qrels(["q1 0 d0 1", f"q1 0 d7 {grade}"])
        assert info.value.line_no == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 2: expected 4 fields, got 3") as info:
            parse_qrels(["q1 0 d1 1", "q1 d7 2"])
        assert info.value.line_no == 2

    def test_negative_grade_rejected(self):
        with pytest.raises(ParseError):
            parse_qrels(["q1 0 d7 -1"])

    @pytest.mark.parametrize("grade", [MAX_GRADE + 1, 1023, 1024, 10**400])
    def test_grade_above_the_maximum_rejected_naming_the_line(self, grade):
        # 2**1024 - 1 overflows a float, and three documents at 1023 overflow the ideal DCG
        with pytest.raises(ParseError, match=f"line 2: grade {grade} outside 0..100") as info:
            parse_qrels(["q1 0 d1 1", f"q1 0 d7 {grade}"])
        assert info.value.line_no == 2

    @pytest.mark.parametrize("grade", [-1, MAX_GRADE + 1])
    def test_in_memory_grade_outside_the_range_rejected_naming_the_pair(self, grade):
        # the cap holds for a Qrels built without a file, as experiment's callers build them
        with pytest.raises(ValueError, match=rf"\(q1, d7\): grade {grade} outside 0\.\.100"):
            Qrels({("q1", "d1"): MAX_GRADE, ("q1", "d7"): grade})

    @pytest.mark.parametrize("gain", ["exp", "linear"])
    def test_every_ndcg_at_the_maximum_grade_is_finite(self, gain):
        judged = 2000
        lines = [f"q1 0 d{i} {MAX_GRADE}" for i in range(judged)]
        judgments = parse_qrels(lines).for_query("q1")
        ranking = rank_records([(f"d{i}", float(i % 7)) for i in range(0, judged, 3)])
        for k in (1, 3, 10, judged):
            value = ndcg_at_k(ranking, judgments, k, gain)
            assert math.isfinite(value) and 0.0 < value <= 1.0

    def test_order_insensitive(self):
        a = parse_qrels(["q1 0 d1 1", "q2 0 d2 3"])
        b = parse_qrels(["q2 0 d2 3", "q1 0 d1 1"])
        assert a == b

    def test_roundtrip(self):
        qrels = Qrels({("q1", "d1"): 2, ("q1", "d2"): 0, ("q9", "d1"): 3})
        assert parse_qrels(write_qrels(qrels)) == qrels

    def test_helpers(self):
        qrels = Qrels({("q1", "d1"): 2, ("q1", "d2"): 0})
        assert qrels.for_query("q1") == {"d1": 2, "d2": 0}
        assert qrels.has_positive("q1")
        assert not qrels.has_positive("q2")

    @settings(max_examples=200, deadline=None)
    @given(
        judgments=st.dictionaries(
            st.tuples(st.sampled_from(["q1", "q2", "q3"]), st.sampled_from(["d1", "d2", "d3", "d4"])),
            st.integers(0, 3),
        ),
        query_id=st.sampled_from(["q1", "q2", "q3", "q9", ""]),
        threshold=st.integers(-1, 4),
    )
    def test_lookups_equal_a_full_scan(self, judgments, query_id, threshold):
        qrels = Qrels(judgments)
        scanned = {d: g for (q, d), g in judgments.items() if q == query_id}
        assert qrels.for_query(query_id) == scanned
        assert list(qrels.for_query(query_id)) == list(scanned)
        assert qrels.has_positive(query_id, threshold) == any(
            g >= threshold for g in scanned.values()
        )
        assert qrels.query_ids() == sorted({q for q, _ in judgments})

    def test_for_query_returns_a_copy(self):
        qrels = Qrels({("q1", "d1"): 2})
        qrels.for_query("q1")["d1"] = 0
        qrels.for_query("q9")["d1"] = 1
        assert qrels.for_query("q1") == {"d1": 2}
        assert qrels.for_query("q9") == {}
        assert not qrels.has_positive("q9")


class TestQueries:
    def test_parse(self):
        queries = parse_queries(["q1\twhat is lbm"])
        assert queries[0].query_id == "q1"
        assert queries[0].text == "what is lbm"

    def test_blank_line_skipped(self):
        assert len(parse_queries(["q1\ta", "", "q2\tb"])) == 2

    def test_two_tabs_is_error(self):
        with pytest.raises(ParseError):
            parse_queries(["q1\ta\tb"])

    def test_missing_tab_is_error(self):
        with pytest.raises(ParseError):
            parse_queries(["q1 what is lbm"])

    def test_blank_text_is_error(self):
        with pytest.raises(ParseError, match="line 2: empty text for query 'q2'"):
            parse_queries(["q1\ta", "q2\t  "])

    def test_preserves_order(self):
        queries = parse_queries(["q2\tb", "q1\ta"])
        assert [q.query_id for q in queries] == ["q2", "q1"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_queries(["q1\ta", "q1\tb"])

    def test_roundtrip(self):
        queries = parse_queries(["q1\twhat is lbm", "q2\tdefine NASA budget"])
        assert parse_queries(write_queries(queries)) == queries

    def test_query_id_with_whitespace_rejected(self):
        # a run written for "q 1" would have 7 fields
        with pytest.raises(ParseError, match=r"line 2: query id 'q 1' contains whitespace"):
            parse_queries(["q0\ta", "q 1\tb"])


class TestCorpus:
    def test_parse(self):
        docs = parse_corpus(['{"doc_id": "d1", "text": "hello"}', '{"doc_id": 7, "text": "x"}'])
        assert docs == [Document("d1", "hello"), Document("7", "x")]

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_corpus(["{not json"])

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            parse_corpus(['{"doc_id": "d1"}'])

    def test_duplicate_doc_id(self):
        line = '{"doc_id": "d1", "text": "x"}'
        with pytest.raises(ParseError, match="duplicate"):
            parse_corpus([line, line])

    def test_roundtrip(self):
        docs = [Document("d1", "a b c"), Document("d2", "x")]
        assert parse_corpus(write_corpus(docs)) == docs

    def test_extra_keys_ignored(self):
        line = '{"doc_id": "d1", "passages": ["a b", "c"], "text": "a b c"}'
        assert parse_corpus([line]) == [Document("d1", "a b c")]

    @pytest.mark.parametrize("doc_id", ["null", "true", "1.5", '{"a": 1}', '["d1"]'])
    def test_doc_id_of_other_json_type_rejected(self, doc_id):
        with pytest.raises(ParseError, match="line 1: doc_id must be a string or an integer"):
            parse_corpus([f'{{"doc_id": {doc_id}, "text": "x"}}'])

    @pytest.mark.parametrize("doc_id", ["a b", " d1", "d1\t"])
    def test_doc_id_with_whitespace_rejected(self, doc_id):
        line = json.dumps({"doc_id": doc_id, "text": "x"})
        with pytest.raises(ParseError, match="line 2: doc_id .* contains whitespace"):
            parse_corpus(['{"doc_id": "d0", "text": "x"}', line])

    def test_reserved_doc_id_rejected(self):
        # the enriched-query TSV writes "-" for "no context document"
        with pytest.raises(ParseError, match="line 2: doc_id '-' is reserved for no document"):
            parse_corpus(['{"doc_id": "d0", "text": "x"}', '{"doc_id": "-", "text": "x"}'])

    @pytest.mark.parametrize("text", ["null", "3", '["a"]'])
    def test_text_that_is_not_a_string_rejected(self, text):
        with pytest.raises(ParseError, match="line 1: text of doc_id 'd1' must be a string"):
            parse_corpus([f'{{"doc_id": "d1", "text": {text}}}'])


@pytest.mark.parametrize(
    "read, lines",
    [
        (read_run_file, ["q1 Q0 d1 1 0.5 t", "q1 Q0 d1 2 0.4 t"]),
        (read_qrels_file, ["q1 0 d1 1", "q1 0 d1 2"]),
        (read_queries_file, ["q1\ta", "q1\tb"]),
        (read_corpus_file, ['{"doc_id": "d1", "text": "a"}', '{"doc_id": "d1", "text": "b"}']),
    ],
    ids=["run", "qrels", "queries", "corpus"],
)
def test_file_reader_error_names_the_path(tmp_path, read, lines):
    path = tmp_path / "input.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="duplicate") as info:
        read(path)
    assert str(info.value).startswith(f"{path}: line 2: duplicate ")
    assert info.value.line_no == 2


@pytest.mark.parametrize(
    "read, lines",
    [
        (read_run_file, ["q1 Q0 d1 1 0.5 t", "q2 Q0 d2 1 0.4 t"]),
        (read_qrels_file, ["q1 0 d1 1", "q2 0 d2 0"]),
        (read_queries_file, ["q1\ta", "q2\tb"]),
        (read_corpus_file, ['{"doc_id": "d1", "text": "a"}', '{"doc_id": "d2", "text": "b"}']),
        (partial(parse_file, parse_enriched), ["q1\ta b\td1\t-", "q2\tc\t-\tfallback"]),
    ],
    ids=["run", "qrels", "queries", "corpus", "enriched"],
)
def test_file_reader_drops_a_leading_bom(tmp_path, read, lines):
    # a BOM kept in the text would make the first id '\ufeffq1', which no
    # judgment matches
    text = "\n".join(lines) + "\n"
    (tmp_path / "plain.txt").write_text(text, encoding="utf-8")
    (tmp_path / "bom.txt").write_text("\ufeff" + text, encoding="utf-8")
    assert read(tmp_path / "bom.txt") == read(tmp_path / "plain.txt")


class TestWriteArtifact:
    """Each artifact is written to a temporary file and renamed into place."""

    def test_failed_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "queries.tsv"
        write_queries_file([Query("q1", "first"), Query("q2", "second")], path)
        before = path.read_bytes()
        queries = [Query(f"q{i}", f"query {i}") for i in range(399)]
        queries.append(Query("q399", "\ud800"))  # a lone surrogate has no UTF-8 form
        with pytest.raises(UnicodeEncodeError):
            write_queries_file(queries, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["queries.tsv"]

    @pytest.mark.parametrize(
        "save, artifact",
        [
            (save_index, build_index([Document("d1", "a b c"), Document("d2", "b c d")])),
            (save_scorer, LogisticScorer(np.zeros(6), 0.0, np.zeros(6), np.ones(6))),
        ],
        ids=["save_index", "save_scorer"],
    )
    def test_failed_rename_leaves_previous_file(self, tmp_path, monkeypatch, save, artifact):
        path = tmp_path / "artifact.json"
        path.write_text("previous")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save(artifact, path)
        assert path.read_text() == "previous"
        assert os.listdir(tmp_path) == ["artifact.json"]

    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        write_artifact(path, "text\n")
        assert path.read_text() == "text\n"
        assert os.listdir(path.parent) == ["out.txt"]

    def test_writes_bytes_as_they_are(self, tmp_path):
        path = tmp_path / "out.bin"
        write_artifact(path, b"\x00\xff\r\n")
        assert path.read_bytes() == b"\x00\xff\r\n"

    def test_directory_as_target_raises_naming_it(self, tmp_path):
        (tmp_path / "out.txt").mkdir()
        with pytest.raises(ValueError, match="out.txt is a directory"):
            write_artifact(tmp_path / "out.txt", "text")

    @pytest.mark.parametrize("parent", ["blocker", "blocker/sub"])
    def test_file_as_parent_directory_raises_naming_the_path(self, tmp_path, parent):
        (tmp_path / "blocker").write_text("")
        path = tmp_path / parent / "out.txt"
        with pytest.raises(ValueError, match="a file stands where a directory goes") as info:
            write_artifact(path, "text")
        assert str(path) in str(info.value)


def file_writes(source: str) -> list[str]:
    """The calls in `source` that write a file or create a directory."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            # open(path, mode) as a function, path.open(mode) as a method
            at = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is not None and not (
                isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
            ):
                found.append(f"line {node.lineno}: open for writing")
        elif name in ("write_text", "write_bytes", "mkdir", "makedirs"):
            found.append(f"line {node.lineno}: {name}")
        elif name == "dump" and isinstance(func, ast.Attribute) and (
            isinstance(func.value, ast.Name) and func.value.id == "json"
        ):
            found.append(f"line {node.lineno}: json.dump")
    return found


class TestOneWriter:
    """Only `corpus_io` writes files or creates directories, so every
    artifact goes through its atomic writer."""

    @pytest.mark.parametrize(
        "source",
        [
            "open(p, 'w')", "open(p, mode='a')", "open(p, 'rb+')", "open(p, mode)",
            "p.open('x')", "p.write_text('')", "p.write_bytes(b'')", "p.mkdir()",
            "os.makedirs(p)", "json.dump({}, fh)",
        ],
    )
    def test_detects_each_kind_of_write(self, source):
        assert file_writes(source)

    @pytest.mark.parametrize(
        "source",
        ["open(p)", "open(p, 'r')", "open(p, mode='rb')", "p.open()", "json.dumps({})"],
    )
    def test_ignores_reads(self, source):
        assert file_writes(source) == []

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "corpus_io.py")
    )
    def test_module_writes_no_file(self, module):
        assert file_writes((SRC / module).read_text(encoding="utf-8")) == []


FILE_ACCESS = frozenset({"open", "read_text", "read_bytes", "write_text", "write_bytes"})

# no site outside corpus_io: the index too is read by `corpus_io.read_binary_file`
FILE_ACCESS_ALLOWED = Counter()


def file_access_sites(path: str, source: str):
    """(path, line, enclosing function, source text) of each call in `source`
    of a function or method named in FILE_ACCESS; the function is
    ``Class.method`` for a method, "" at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        func = node.func if isinstance(node, ast.Call) else None
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in FILE_ACCESS:
            found.append((path, node.lineno, scope, ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


class TestOneReader:
    """Only `corpus_io` opens, reads or writes files: every text input goes
    through `parse_file`, the index through `read_binary_file` and every
    artifact through `write_artifact`, so all inputs share one error path.
    The allow-list would hold each other site by its file, function and
    source text; it is empty."""

    def test_detects_each_kind_of_access(self):
        source = (
            "import os\n\n\nclass A:\n    def f(self, p):\n"
            "        return open(p), p.open()\n\n\n"
            "def g(p):\n    p.read_text()\n    p.read_bytes()\n    p.write_text('')\n"
            "    os.open(p, 0)\n    return p.write_bytes(b'')\n"
        )
        sites = file_access_sites("a.py", source)
        assert [(line, scope, text) for _, line, scope, text in sites] == [
            (6, "A.f", "open(p)"),
            (6, "A.f", "p.open()"),
            (10, "g", "p.read_text()"),
            (11, "g", "p.read_bytes()"),
            (12, "g", "p.write_text('')"),
            (13, "g", "os.open(p, 0)"),
            (14, "g", "p.write_bytes(b'')"),
        ]

    def test_other_calls_are_no_site(self):
        source = "def f(p, r):\n    return urlopen(r), parse_file(list, p), json.loads(p.name)\n"
        assert file_access_sites("a.py", source) == []

    def test_no_module_but_corpus_io_opens_a_file_outside_the_allow_list(self):
        sites = []
        for path in sorted(SRC.glob("*.py")):
            if path.name != "corpus_io.py":
                sites += file_access_sites(str(path.relative_to(ROOT)),
                                           path.read_text(encoding="utf-8"))
        assert unallowed(sites, FILE_ACCESS_ALLOWED) == []
        # an allowed site that is gone should leave the list with it
        assert Counter((path, scope, text) for path, _, scope, text in sites) == FILE_ACCESS_ALLOWED
