"""Hardness classification, prompt building, and the enrichment flow."""

import json
import logging
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from hardrank.corpus_io import Document, ParseError, Qrels, Query, corpus_by_id
from hardrank.enrichment import (
    EnrichmentError,
    HardnessRule,
    HttpGenerator,
    StubGenerator,
    build_prompt,
    classify_hardness,
    enrich,
    enrich_all,
    parse_enriched,
    write_enriched,
)
from hardrank.lexical_retrieval import build_index


class TestClassifyHardness:
    def test_short_query_is_hard(self):
        rule = HardnessRule(max_token_count=4)
        assert classify_hardness(Query("q", "what is lbm"), rule) == "hard"

    def test_long_covered_query_is_easy(self):
        rule = HardnessRule(max_token_count=5, min_context_terms=2)
        text = "population growth trends in coastal cities of western europe"
        assert classify_hardness(Query("q", text), rule) == "easy"

    def test_acronym_triggers_hard(self):
        rule = HardnessRule(max_token_count=2, acronym_pattern=True)
        assert classify_hardness(Query("q", "define NASA budget"), rule) == "hard"

    def test_acronym_rule_can_be_disabled(self):
        rule = HardnessRule(max_token_count=2, acronym_pattern=False, min_context_terms=1)
        assert classify_hardness(Query("q", "define NASA budget"), rule) == "easy"

    @pytest.mark.parametrize("acronym_pattern", [True, False])
    def test_lexicon_miss_is_hard(self, acronym_pattern):
        lexicon = frozenset("population growth trends in coastal cities of".split())
        rule = HardnessRule(max_token_count=2, acronym_pattern=acronym_pattern, lexicon=lexicon)
        hard = "population growth trends in xylographic cities"
        easy = "population growth trends in coastal cities"
        assert classify_hardness(Query("q", hard), rule) == "hard"
        assert classify_hardness(Query("q", easy), rule) == "easy"

    def test_too_few_content_terms_is_hard(self):
        rule = HardnessRule(max_token_count=3, min_context_terms=2)
        assert classify_hardness(Query("q", "what is it about then and now"), rule) == "hard"

    def test_pure_function(self):
        rule = HardnessRule()
        query = Query("q", "solar PV efficiency")
        assert classify_hardness(query, rule) == classify_hardness(query, rule)


class TestBuildPrompt:
    def test_contains_query_and_passage_verbatim(self):
        prompt = build_prompt(Query("q", "lbm"), "Lean body mass is fat-free mass.")
        assert "lbm" in prompt
        assert "Lean body mass is fat-free mass." in prompt

    def test_empty_passage_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(Query("q", "lbm"), "")

    def test_deterministic(self):
        a = build_prompt(Query("q", "lbm"), "passage")
        b = build_prompt(Query("q", "lbm"), "passage")
        assert a == b


class EchoGenerator:
    """Test stub following the documented generator contract."""

    generator_id = "echo"

    def __init__(self, reply=None, fail=False):
        self.reply = reply
        self.fail = fail

    def generate(self, query, passage):
        if self.fail:
            raise RuntimeError("backend down")
        if self.reply is not None:
            return self.reply
        # deterministic echo: query plus first 3 passage tokens
        return f"REWRITTEN: {query.text} | {' '.join(passage.split()[:3])}"


@pytest.fixture
def setting():
    docs = [
        Document("d1", "Lean body mass lbm is total weight minus fat weight"),
        Document("d2", "Solar irradiance measures power per unit area"),
        Document("d3", "Rainfall statistics for temperate climates vary widely"),
    ]
    return docs, corpus_by_id(docs), build_index(docs)


class TestEnrich:
    def test_stub_echo_contract(self, setting):
        docs, corpus, index = setting
        out = enrich(Query("q1", "lbm"), index, corpus, EchoGenerator())
        assert out.enriched_text == "REWRITTEN: lbm | Lean body mass"
        assert out.context_doc_id == "d1"
        assert not out.fallback

    def test_no_match_falls_back_to_original(self, setting):
        docs, corpus, index = setting
        out = enrich(Query("q1", "zzz unknown"), index, corpus, EchoGenerator())
        assert out.enriched_text == "zzz unknown"
        assert out.fallback
        assert out.context_doc_id == ""

    def test_long_output_truncated_to_64_tokens(self, setting):
        docs, corpus, index = setting
        reply = " ".join(f"t{i}" for i in range(200))
        out = enrich(Query("q1", "lbm"), index, corpus, EchoGenerator(reply=reply))
        assert len(out.enriched_text.split()) == 64

    def test_multiline_output_trimmed_to_first_line(self, setting):
        docs, corpus, index = setting
        out = enrich(Query("q1", "lbm"), index, corpus,
                     EchoGenerator(reply="\nfirst line\nsecond line\n"))
        assert out.enriched_text == "first line"

    def test_generator_failure_carries_query_id(self, setting):
        docs, corpus, index = setting
        with pytest.raises(EnrichmentError, match="q7"):
            enrich(Query("q7", "lbm"), index, corpus, EchoGenerator(fail=True))

    def test_blank_completion_falls_back(self, setting):
        docs, corpus, index = setting
        out = enrich(Query("q1", "lbm"), index, corpus, EchoGenerator(reply="   \n"))
        assert out.enriched_text == "lbm"
        assert out.fallback

    def test_context_doc_is_bm25_rank1(self, setting):
        docs, corpus, index = setting
        out = enrich(Query("q1", "solar irradiance"), index, corpus, EchoGenerator())
        assert out.context_doc_id == "d2"

    def test_judged_context_prefers_highest_grade(self, setting):
        docs, corpus, index = setting
        qrels = Qrels({("q1", "d1"): 1, ("q1", "d2"): 3})
        out = enrich(
            Query("q1", "lbm"), index, corpus, EchoGenerator(),
            qrels=qrels, use_judged_context=True,
        )
        assert out.context_doc_id == "d2"

    def test_empty_context_passage_falls_back_without_calling_the_generator(self):
        docs = [Document("d1", "Lean body mass lbm is total weight"), Document("blank", "")]
        qrels = Qrels({("q1", "blank"): 3, ("q1", "d1"): 1})
        out = enrich(
            Query("q1", "lbm"), build_index(docs), corpus_by_id(docs), EchoGenerator(fail=True),
            qrels=qrels, use_judged_context=True,
        )
        assert (out.enriched_text, out.context_doc_id, out.fallback) == ("lbm", "blank", True)

    def test_tokenless_context_passage_falls_back_without_calling_the_generator(self):
        # punctuation only: the document is not empty, but it has no passage
        docs = [Document("d1", "Lean body mass lbm is total weight"), Document("marks", "-- !!")]
        qrels = Qrels({("q1", "marks"): 3, ("q1", "d1"): 1})
        out = enrich(
            Query("q1", "lbm"), build_index(docs), corpus_by_id(docs), EchoGenerator(fail=True),
            qrels=qrels, use_judged_context=True,
        )
        assert (out.enriched_text, out.context_doc_id, out.fallback) == ("lbm", "marks", True)

    def test_enrich_all_collects_errors(self, setting):
        docs, corpus, index = setting
        queries = [Query("q1", "lbm"), Query("q2", "solar")]
        enriched, errors = enrich_all(queries, index, corpus, EchoGenerator(fail=True))
        assert enriched == []
        assert sorted(e.query_id for e in errors) == ["q1", "q2"]

    def test_enrich_all_parallel_preserves_order(self, setting):
        docs, corpus, index = setting
        queries = [Query(f"q{i}", "lbm solar") for i in range(8)]
        sequential, _ = enrich_all(queries, index, corpus, EchoGenerator())
        threaded, _ = enrich_all(queries, index, corpus, EchoGenerator(), max_workers=4)
        assert sequential == threaded


class TestStubGenerator:
    def test_appends_new_content_terms(self):
        stub = StubGenerator(context_terms=3)
        out = stub.generate(Query("q", "lbm"), "the lean body mass of an athlete")
        assert out == "lbm lean body mass"

    def test_no_new_terms_returns_query(self):
        stub = StubGenerator()
        assert stub.generate(Query("q", "lean body mass"), "lean body mass") == "lean body mass"

    def test_passage_holding_the_prompt_closing_line_is_read_whole(self):
        stub = StubGenerator(context_terms=3)
        passage = "one two\n\nRewritten query: three four five"
        assert stub.generate(Query("q", "XYZ"), passage) == "XYZ one two rewritten"


class _Handler(BaseHTTPRequestHandler):
    failures_left = 0
    failure_status = 503
    reply: object = {"text": "echo: ok"}
    bodies: list = []
    headers_seen: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _Handler.bodies.append(body)
        _Handler.headers_seen.append(dict(self.headers))
        if _Handler.failures_left > 0:
            _Handler.failures_left -= 1
            self.send_response(_Handler.failure_status)
            self.send_header("Location", self.path)  # read by a redirect
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        reply = json.dumps(_Handler.reply)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(reply.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    _Handler.failures_left, _Handler.failure_status = 0, 503
    _Handler.reply = {"text": "echo: ok"}
    _Handler.bodies, _Handler.headers_seen = [], []
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    server.server_close()


class TestHttpGenerator:
    def test_round_trip(self, http_endpoint, monkeypatch):
        # the package installs with numpy and scipy alone
        monkeypatch.setitem(sys.modules, "requests", None)
        monkeypatch.setenv("HARDRANK_GENERATOR_TOKEN", "secret")
        gen = HttpGenerator(endpoint_url=http_endpoint, backoff_base=0.01)
        _Handler.failures_left = 0
        _Handler.bodies = []
        query = Query("q", "lbm")
        out = gen.generate(query, "some passage")
        assert out.startswith("echo:")
        assert _Handler.bodies == [{"prompt": build_prompt(query, "some passage"), "max_tokens": 64}]
        assert _Handler.headers_seen[0]["Content-Type"] == "application/json"
        assert _Handler.headers_seen[0]["Authorization"] == "Bearer secret"

    def test_retries_transient_failures(self, http_endpoint):
        gen = HttpGenerator(endpoint_url=http_endpoint, max_retries=3, backoff_base=0.01)
        _Handler.failures_left = 2
        out = gen.generate(Query("q", "lbm"), "some passage")
        assert out.startswith("echo:")

    def test_gives_up_after_retries(self, http_endpoint):
        gen = HttpGenerator(endpoint_url=http_endpoint, max_retries=1, backoff_base=0.01)
        _Handler.failures_left = 99
        with pytest.raises(RuntimeError, match="retries"):
            gen.generate(Query("q", "x"), "y")
        _Handler.failures_left = 0

    def test_rate_limit_is_retried(self, http_endpoint):
        gen = HttpGenerator(endpoint_url=http_endpoint, max_retries=1, backoff_base=0.01)
        _Handler.failures_left, _Handler.failure_status = 1, 429
        assert gen.generate(Query("q", "x"), "y") == "echo: ok"
        assert len(_Handler.bodies) == 2

    @pytest.mark.parametrize("status", [404, 307])
    def test_client_error_and_post_redirect_are_not_retried(self, http_endpoint, status):
        gen = HttpGenerator(endpoint_url=http_endpoint, max_retries=3, backoff_base=0.01)
        _Handler.failures_left, _Handler.failure_status = 1, status
        with pytest.raises(RuntimeError, match=f"generator returned HTTP {status}"):
            gen.generate(Query("q", "x"), "y")
        assert len(_Handler.bodies) == 1

    @pytest.mark.parametrize(
        "reply", [{"text": None}, {"text": 42}, {"text": ["a", "b"]}, {"completion": "x"},
                  "echo: ok", ["echo: ok"]],
        ids=["null", "number", "list", "no-text", "json-string", "json-list"])
    def test_reply_without_string_text_fails_the_query(self, http_endpoint, setting, reply):
        # a non-string completion must not become query text that SR trains on
        gen = HttpGenerator(endpoint_url=http_endpoint, max_retries=0)
        _Handler.reply = reply
        with pytest.raises(RuntimeError, match="no string 'text'"):
            gen.generate(Query("q", "x"), "y")
        docs, corpus, index = setting
        enriched, errors = enrich_all([Query("q1", "lbm")], index, corpus, gen)
        assert enriched == [] and [e.query_id for e in errors] == ["q1"]

    def test_endpoint_must_be_http(self):
        with pytest.raises(ValueError, match="endpoint_url must be an http"):
            HttpGenerator(endpoint_url="file:///etc/hosts")

    def test_unreachable_endpoint(self):
        gen = HttpGenerator(
            endpoint_url="http://127.0.0.1:1/nothing", max_retries=0, backoff_base=0.01,
            timeout=0.5,
        )
        with pytest.raises(RuntimeError):
            gen.generate(Query("q", "x"), "y")


class TestEnrichedTsv:
    def test_roundtrip_fields(self, setting):
        docs, corpus, index = setting
        enriched = [
            enrich(Query("q1", "lbm"), index, corpus, EchoGenerator()),
            enrich(Query("q2", "zzz"), index, corpus, EchoGenerator()),
        ]
        parsed = parse_enriched(write_enriched(enriched))
        assert parsed["q1"] == ("REWRITTEN: lbm | Lean body mass", "d1", False)
        assert parsed["q2"] == ("zzz", "", True)

    def test_blank_line_skipped_with_a_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hardrank.corpus_io"):
            parsed = parse_enriched(["q1\tfirst\td1\t-", "", "q2\tother\t-\tfallback"])
        assert parsed == {"q1": ("first", "d1", False), "q2": ("other", "", True)}
        assert "line 2: blank line skipped" in caplog.text

    def test_duplicate_qid_rejected(self):
        lines = ["q1\tfirst\td1\t-", "q2\tother\t-\tfallback", "q1\tsecond\td2\t-"]
        with pytest.raises(ParseError, match="duplicate query id 'q1'") as info:
            parse_enriched(lines)
        assert info.value.line_no == 3

    @pytest.mark.parametrize("line, message", [
        ("q2\t\td1\t-", "empty text for query 'q2'"),
        ("q2\t   \td1\t-", "empty text for query 'q2'"),
        ("q 2\tother\td1\t-", "query id 'q 2' contains whitespace"),
    ])
    def test_blank_text_or_spaced_id_rejected_naming_the_line(self, line, message):
        with pytest.raises(ParseError, match=message) as info:
            parse_enriched(["q1\tfirst\td1\t-", line])
        assert info.value.line_no == 2

    @pytest.mark.parametrize("line, message", [
        ("q2\tother\td 1\t-", "context doc id 'd 1' contains whitespace"),
        ("q2\tother\t\tfallback", "empty context doc id"),
        ("q2\tother\td1\tnot-a-fallback", "flags must be '-' or 'fallback', got 'not-a-fallback'"),
        ("q2\tother\td1\tfallback,x", "flags must be '-' or 'fallback', got 'fallback,x'"),
        ("q2\tother\td1\tFALLBACK", "flags must be '-' or 'fallback', got 'FALLBACK'"),
    ])
    def test_bad_context_doc_or_flags_rejected_naming_the_line(self, line, message):
        with pytest.raises(ParseError, match=message) as info:
            parse_enriched(["q1\tfirst\td1\t-", line])
        assert info.value.line_no == 2
