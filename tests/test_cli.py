"""The command-line surface on a small fixture: wiring, errors, exit codes."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardrank
from hardrank import cli
from hardrank.benchmark import write_benchmark
from hardrank.config import load_config
from hardrank.corpus_io import (
    Document,
    Qrels,
    Query,
    read_qrels_file,
    read_run_file,
    write_corpus_file,
    write_qrels_file,
    write_queries_file,
)
from hardrank.evaluation import build_report, report_jsonl
from hardrank.lexical_retrieval import load_index
from hardrank.linear_model import save_scorer
from hardrank.pipeline import experiment, produce_run


@pytest.fixture(scope="session")
def run_cli(child_env):
    def run(*args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "hardrank.cli", *args],
            cwd=cwd,
            env=child_env,
            capture_output=True,
            text=True,
        )

    return run


@pytest.fixture
def workdir(tmp_path):
    write_fixture(tmp_path)
    return tmp_path


def write_fixture(tmp_path):
    """Tiny 9-doc / 4-query corpus: 2 hard (short) and 2 easy queries."""
    docs = []
    for topic, words in (("a", ["canoe", "paddle", "river"]), ("b", ["solar", "panel", "roof"])):
        docs.append(Document(f"{topic}_rel", " ".join(words * 3) + " guide with details"))
        docs.append(Document(f"{topic}_rel2", f"{words[0]} overview and notes on {words[1]}"))
        docs.append(Document(f"{topic}_dis", f"{words[0]} unrelated rant entirely off topic"))
    docs.append(Document("filler1", "completely unrelated text about knitting"))
    docs.append(Document("filler2", "another page about gardening tulips"))
    docs.append(Document("filler3", "notes about chess openings and endgames"))
    write_corpus_file(docs, tmp_path / "corpus.jsonl")

    queries = [
        Query("q1", "canoe"),
        Query("q2", "solar"),
        Query("q3", "how to choose a canoe paddle for a river trip"),
        Query("q4", "what size solar panel fits a small roof"),
    ]
    write_queries_file(queries, tmp_path / "queries.tsv")

    qrels = Qrels(
        {
            ("q1", "a_rel"): 3, ("q1", "a_rel2"): 1, ("q1", "a_dis"): 0,
            ("q2", "b_rel"): 3, ("q2", "b_rel2"): 1, ("q2", "b_dis"): 0,
            ("q3", "a_rel"): 2, ("q3", "a_rel2"): 1,
            ("q4", "b_rel"): 2, ("q4", "b_rel2"): 1,
        }
    )
    write_qrels_file(qrels, tmp_path / "qrels.txt")

    (tmp_path / "config.json").write_text(json.dumps({
        "paths": {
            "corpus": "corpus.jsonl",
            "train_queries": "queries.tsv",
            "train_qrels": "qrels.txt",
            "test_queries": "queries.tsv",
            "test_qrels": "qrels.txt",
        },
        "ranker": {"epochs": 50},
        "qpp": {"epochs": 50},
    }))


FEATURE_ARRAYS = ("weights", "feature_means", "feature_stds")


def set_train_median(trained, value):
    """Store `value` as the QPP model's train_median_psi; None removes the field."""
    qpp_path = trained / "work" / "models" / "qpp.json"
    payload = json.loads(qpp_path.read_text())
    payload["metadata"]["train_median_psi"] = value
    if value is None:
        del payload["metadata"]["train_median_psi"]
    qpp_path.write_text(json.dumps(payload))


def _lead_terms(index):
    """Each document's lead terms, one space-joined string per document, as
    index versions 2 to 4 stored them."""
    lead = [[] for _ in index.doc_ids]
    ids, leads = index.ids.tolist(), index.leads.tolist()
    for term, (start, end) in index.spans.items():
        for at in range(start, end):
            if leads[at]:
                lead[ids[at]].append(term)
    return [" ".join(terms) for terms in lead]


def _json_columns(index, version):
    """The one JSON record of index versions 1, 4 and 5: the postings as
    flat lists, with version 5's `leads` column."""
    return {
        "format": "hardrank-index",
        "version": version,
        "doc_ids": index.doc_ids,
        "terms": list(index.spans),
        "df": [end - start for start, end in index.spans.values()],
        "ids": index.ids.tolist(),
        "tfs": index.tfs.tolist(),
        "leads": index.leads.astype(int).tolist(),
    }


class TestIndexCommand:
    def test_builds_index(self, workdir, run_cli):
        result = run_cli("index", "--config", "config.json", cwd=workdir)
        assert result.returncode == 0
        assert "indexed 9 documents" in result.stdout
        assert (workdir / "work" / "index.bin").exists()

    def test_refuses_rebuild_without_force(self, workdir, run_cli):
        assert run_cli("index", "--config", "config.json", cwd=workdir).returncode == 0
        again = run_cli("index", "--config", "config.json", cwd=workdir)
        assert again.returncode == 1
        assert "--force" in again.stderr
        forced = run_cli("index", "--config", "config.json", "--force", cwd=workdir)
        assert forced.returncode == 0

    def test_missing_corpus_is_input_error(self, workdir, run_cli):
        result = run_cli(
            "index", "--config", "config.json", "--set", "paths.corpus=missing.jsonl",
            cwd=workdir,
        )
        assert result.returncode == 1
        assert "missing.jsonl" in result.stderr

    def test_corpus_of_blank_lines_is_input_error_naming_it(self, workdir, run_cli):
        (workdir / "corpus.jsonl").write_text("\n  \n\n")
        result = run_cli("index", "--config", "config.json", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "error: corpus.jsonl holds no documents (paths.corpus)" in result.stderr
        assert not (workdir / "work" / "index.bin").exists()

    def test_doc_id_with_whitespace_is_input_error(self, workdir, run_cli):
        with open(workdir / "corpus.jsonl", "a") as fh:
            fh.write('{"doc_id": "a b", "text": "split id"}\n')
        result = run_cli("index", "--config", "config.json", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "corpus.jsonl: line 10: doc_id 'a b' contains whitespace" in result.stderr
        assert not (workdir / "work" / "index.bin").exists()

    def test_reserved_doc_id_is_input_error(self, workdir, run_cli):
        with open(workdir / "corpus.jsonl", "a") as fh:
            fh.write('{"doc_id": "-", "text": "no context"}\n')
        result = run_cli("index", "--config", "config.json", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "corpus.jsonl: line 10: doc_id '-' is reserved for no document" in result.stderr
        assert not (workdir / "work" / "index.bin").exists()

    @pytest.mark.parametrize("value, shown", [('""', "."), ("a_dir", "a_dir")])
    def test_directory_as_corpus_is_input_error(self, workdir, run_cli, value, shown):
        (workdir / "a_dir").mkdir()
        result = run_cli(
            "index", "--config", "config.json", "--set", f"paths.corpus={value}", cwd=workdir
        )
        assert result.returncode == 1, result.stderr
        assert f"error: {shown} is not a file (corpus JSONL)" in result.stderr

    def test_directory_as_index_output_is_input_error(self, workdir, run_cli):
        (workdir / "work" / "idxdir").mkdir(parents=True)
        result = run_cli(
            "index", "--config", "config.json", "--force",
            "--set", 'paths.index="work/idxdir"', cwd=workdir,
        )
        assert result.returncode == 1, result.stderr
        assert "work/idxdir is a directory" in result.stderr

    @pytest.mark.parametrize(
        "command, override",
        [
            (("train", "--which", "br"), 'paths.models_dir="config.json"'),
            (("run", "--method", "br"), 'paths.runs_dir="config.json"'),
        ],
        ids=["train", "run"],
    )
    def test_file_as_output_directory_is_input_error(self, workdir, run_cli, command, override):
        for args in (("index",), ("train", "--which", "br")):
            assert run_cli(*args, "--config", "config.json", cwd=workdir).returncode == 0
        before = (workdir / "config.json").read_bytes()
        result = run_cli(*command, "--config", "config.json", "--set", override, cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "error: config.json/" in result.stderr
        assert "a file stands where a directory goes" in result.stderr
        assert (workdir / "config.json").read_bytes() == before

    @pytest.mark.parametrize(
        "override",
        [
            'run_depth="5"', "run_depth=true", "seed=true", "fusion.routing_threshold=true",
            "bm25.k1=NaN", "bm25.k1=Infinity", "ranker.learning_rate=NaN",
            "qpp.learning_rate=NaN", "hardness.acronym_pattern=5",
            pytest.param("bm25.b=" + "9" * 400, id="bm25.b=9x400"),
        ],
    )
    def test_wrongly_typed_config_value_is_input_error(self, workdir, run_cli, override):
        result = run_cli("index", "--config", "config.json", "--set", override, cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert override.split("=")[0] in result.stderr
        assert not (workdir / "work" / "index.bin").exists()


    @pytest.mark.parametrize(
        "override, code",
        [("bm25={}", 0), ('bm25={"k1":1.2}', 0), ('bm25={"zz":1}', 1)],
        ids=["empty", "partial", "unknown-key"],
    )
    def test_section_override_merges_like_a_file_section(self, workdir, run_cli, override, code):
        result = run_cli("index", "--config", "config.json", "--set", override, cwd=workdir)
        assert result.returncode == code, result.stderr
        if code:
            assert "unknown config key 'bm25.zz'" in result.stderr


class TestEnrichCommand:
    def test_writes_tsv_and_summary(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        result = run_cli("enrich", "--config", "config.json", cwd=workdir)
        assert result.returncode == 0
        assert "hard queries: 2" in result.stdout
        lines = (workdir / "work" / "enriched.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t")[0] == "q1"

    def test_all_easy_queries_gives_empty_tsv(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        easy_only = "\n".join(
            line
            for line in (workdir / "queries.tsv").read_text().splitlines()
            if line.startswith(("q3", "q4"))
        )
        (workdir / "queries_easy.tsv").write_text(easy_only + "\n")
        result = run_cli(
            "enrich", "--config", "config.json",
            "--set", "paths.train_queries=queries_easy.tsv",
            cwd=workdir,
        )
        assert result.returncode == 0
        assert "hard queries: 0" in result.stdout
        assert (workdir / "work" / "enriched.tsv").read_text() == ""

    def test_corpus_changed_after_index_is_input_error(self, workdir, run_cli):
        # enrichment reads a BM25 hit's text from the corpus; a hit the
        # corpus no longer holds names the corpus, the document and the fix
        run_cli("index", "--config", "config.json", cwd=workdir)
        corpus = workdir / "corpus.jsonl"
        lines = corpus.read_text().splitlines(keepends=True)
        corpus.write_text("".join(line for line in lines if '"a_rel"' not in line))
        result = run_cli("enrich", "--config", "config.json",
                         "--set", "enrichment.use_judged_context=false", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "corpus.jsonl lacks document 'a_rel'" in result.stderr
        assert "hardrank index --force" in result.stderr
        assert not (workdir / "work" / "enriched.tsv").exists()

    def test_unreachable_generator_reports_and_fails(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        assert run_cli("enrich", "--config", "config.json", cwd=workdir).returncode == 0
        enriched_path = workdir / "work" / "enriched.tsv"
        complete = enriched_path.read_bytes()
        result = run_cli(
            "enrich", "--config", "config.json",
            "--set", "generator.type=http",
            "--set", "generator.endpoint_url=http://127.0.0.1:1/x",
            "--set", "generator.max_retries=0",
            cwd=workdir,
        )
        assert result.returncode == 2
        assert "enrichment failed" in result.stderr
        assert "q1" in result.stderr
        # a failed enrichment keeps the complete file and says it wrote nothing
        assert enriched_path.read_bytes() == complete
        assert "nothing written" in result.stdout
        assert "enriched.tsv" not in result.stdout


class TestTrainCommand:
    def test_sr_without_enriched_queries_fails(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        result = run_cli("train", "--config", "config.json", "--which", "sr", cwd=workdir)
        assert result.returncode == 1
        assert "enrich" in result.stderr

    def test_sr_on_an_empty_enriched_queries_file_fails_naming_it(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        (workdir / "work" / "enriched.tsv").write_text("")
        result = run_cli("train", "--config", "config.json", "--which", "sr", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert ("error: work/enriched.tsv holds no queries (the specialized ranker needs "
                "enriched training queries; run the enrich command)") in result.stderr
        assert not (workdir / "work" / "models" / "sr.json").exists()

    def test_directory_as_enriched_queries_is_input_error(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        result = run_cli(
            "train", "--config", "config.json", "--which", "sr",
            "--set", 'paths.enriched_queries="work"', cwd=workdir,
        )
        assert result.returncode == 1, result.stderr
        assert "error: work is not a file" in result.stderr
        assert not (workdir / "work" / "models" / "sr.json").exists()

    def test_malformed_enriched_queries_error_names_the_file(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        (workdir / "work" / "enriched.tsv").write_text("q1\tcanoe paddle\ta_rel\t-\nq2\tsolar\n")
        result = run_cli("train", "--config", "config.json", "--which", "sr", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "work/enriched.tsv: line 2: expected 4 TAB-separated fields" in result.stderr
        assert not (workdir / "work" / "models" / "sr.json").exists()

    def test_blank_rewrite_in_enriched_queries_fails_naming_the_line(self, workdir, run_cli):
        for args in (("index",), ("enrich",)):
            assert run_cli(*args, "--config", "config.json", cwd=workdir).returncode == 0
        enriched_path = workdir / "work" / "enriched.tsv"
        lines = enriched_path.read_text().splitlines()
        qid, _, doc_id, flags = lines[1].split("\t")
        lines[1] = "\t".join([qid, "", doc_id, flags])
        enriched_path.write_text("\n".join(lines) + "\n")
        result = run_cli("train", "--config", "config.json", "--which", "sr", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert f"work/enriched.tsv: line 2: empty text for query {qid!r}" in result.stderr
        assert not (workdir / "work" / "models" / "sr.json").exists()

    def test_sr_on_enriched_queries_that_are_not_training_queries_fails(self, workdir, run_cli):
        for args in (("index",), ("enrich",)):
            assert run_cli(*args, "--config", "config.json", cwd=workdir).returncode == 0
        kept = [line for line in (workdir / "queries.tsv").read_text().splitlines()
                if not line.startswith("q1\t")]
        (workdir / "queries_without_q1.tsv").write_text("\n".join(kept) + "\n")
        result = run_cli(
            "train", "--config", "config.json", "--which", "sr",
            "--set", "paths.train_queries=queries_without_q1.tsv", cwd=workdir,
        )
        assert result.returncode == 1, result.stderr
        assert "work/enriched.tsv" in result.stderr
        assert "['q1']" in result.stderr
        assert "hardrank enrich" in result.stderr
        assert not (workdir / "work" / "models" / "sr.json").exists()

    def test_br_writes_model_and_loss_curve(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        result = run_cli("train", "--config", "config.json", "--which", "br", cwd=workdir)
        assert result.returncode == 0
        assert (workdir / "work" / "models" / "br.json").exists()
        curve = (workdir / "work" / "models" / "br.loss.tsv").read_text().splitlines()
        assert len(curve) == 51  # initial loss + one per epoch

    def test_an_integer_learning_rate_writes_the_model_of_its_float(self, workdir, run_cli):
        assert run_cli("index", "--config", "config.json", cwd=workdir).returncode == 0
        models = {}
        for value in ("1", "1.0"):
            result = run_cli("train", "--config", "config.json", "--which", "br",
                             "--set", f"ranker.learning_rate={value}", cwd=workdir)
            assert result.returncode == 0, result.stderr
            models[value] = (workdir / "work" / "models" / "br.json").read_bytes()
        assert b'"learning_rate": 1.0' in models["1"]
        assert models["1"] == models["1.0"]

    def test_ranker_fit_whose_logits_overflow_is_input_error(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        result = run_cli(
            "train", "--config", "config.json", "--which", "br",
            "--set", "ranker.learning_rate=1e308", cwd=workdir,
        )
        assert result.returncode == 1, result.stderr
        assert "error: ranker.learning_rate: a logit is not finite after epoch" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not (workdir / "work" / "models" / "br.json").exists()
        assert not (workdir / "work" / "models" / "br.loss.tsv").exists()

    def test_qpp_fit_whose_loss_rises_is_input_error(self, tmp_path, run_cli):
        # the tiny fixture's QPP labels are separable, so any step lowers
        # the loss there; on the README benchmark a step of 1e6 raises it
        write_benchmark(tmp_path, seed=7)
        (tmp_path / "config.json").write_text(json.dumps({"paths": {
            "corpus": "corpus.jsonl",
            "train_queries": "queries.tsv",
            "train_qrels": "qrels.txt",
            "test_queries": "queries.tsv",
            "test_qrels": "qrels.txt",
        }}))
        assert run_cli("index", "--config", "config.json", cwd=tmp_path).returncode == 0
        result = run_cli(
            "train", "--config", "config.json", "--which", "qpp",
            "--set", "qpp.learning_rate=1e6", cwd=tmp_path,
        )
        assert result.returncode == 1, result.stderr
        assert "error: qpp.learning_rate: the loss rose from 0.6931 to" in result.stderr
        assert "; lower it" in result.stderr
        assert not (tmp_path / "work" / "models" / "qpp.json").exists()
        assert not (tmp_path / "work" / "models" / "qpp.loss.tsv").exists()

    @pytest.mark.parametrize(
        "which, message",
        [("br", "error: cannot train br: no training query has a corpus document graded >= "
                "ranker.label_threshold (1) in qrels.txt, so there is no positive example"),
         ("qpp", "error: QPP training needs at least 2 training queries with a BM25 candidate "
                 "and a document graded >= ranker.label_threshold (1) in qrels.txt; 0 have both")],
    )
    def test_qrels_without_a_positive_name_the_file_and_threshold(
        self, workdir, run_cli, which, message
    ):
        qrels_path = workdir / "qrels.txt"
        zeroed = {key: 0 for key in read_qrels_file(qrels_path).judgments}
        write_qrels_file(Qrels(zeroed), qrels_path)
        assert run_cli("index", "--config", "config.json", cwd=workdir).returncode == 0
        result = run_cli("train", "--config", "config.json", "--which", which, cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert message in result.stderr
        # one warning for the stage, not one per skipped query
        warnings = [line for line in result.stderr.splitlines() if line.startswith("WARNING")]
        assert len(warnings) == (which == "qpp")
        if warnings:
            assert "4 skipped, first ['q1', 'q2', 'q3', 'q4']" in warnings[0]
        assert not (workdir / "work" / "models" / f"{which}.json").exists()

    def test_no_negatives_per_positive_is_input_error(self, workdir, run_cli):
        result = run_cli(
            "train", "--config", "config.json", "--which", "br",
            "--set", "ranker.negatives_per_positive=0", cwd=workdir,
        )
        assert result.returncode == 1, result.stderr
        assert "error: ranker.negatives_per_positive must be >= 1, got 0" in result.stderr

    def test_qpp_without_qrels_fails(self, workdir, run_cli):
        run_cli("index", "--config", "config.json", cwd=workdir)
        result = run_cli(
            "train", "--config", "config.json", "--which", "qpp",
            "--set", "paths.train_qrels=absent.txt",
            cwd=workdir,
        )
        assert result.returncode == 1
        assert "judgments" in result.stderr


class TestRunAndEval:
    @pytest.fixture(scope="class")
    def trained_template(self, tmp_path_factory, run_cli):
        """The fixture after index, enrich and train x3, run once per class."""
        workdir = tmp_path_factory.mktemp("trained")
        write_fixture(workdir)
        for args in (
            ("index",),
            ("enrich",),
            ("train", "--which", "br"),
            ("train", "--which", "sr"),
            ("train", "--which", "qpp"),
        ):
            result = run_cli(*args, "--config", "config.json", cwd=workdir)
            assert result.returncode == 0, result.stderr
        return workdir

    @pytest.fixture
    def trained(self, trained_template, tmp_path):
        """A private copy of the trained directory (its config paths are relative)."""
        return shutil.copytree(trained_template, tmp_path / "trained")

    @pytest.fixture(scope="class")
    def ranked_template(self, trained_template, tmp_path_factory, run_cli):
        """The trained fixture after `run --method br` and `sr`, which fusion reads."""
        workdir = shutil.copytree(trained_template, tmp_path_factory.mktemp("ranked") / "w")
        for method in ("br", "sr"):
            result = run_cli("run", "--config", "config.json", "--method", method, cwd=workdir)
            assert result.returncode == 0, result.stderr
        return workdir

    @pytest.fixture
    def ranked(self, ranked_template, tmp_path):
        """A private copy of the ranked directory."""
        return shutil.copytree(ranked_template, tmp_path / "ranked")

    def test_unknown_method_is_usage_error(self, workdir, run_cli):
        result = run_cli("run", "--config", "config.json", "--method", "rrf", cwd=workdir)
        assert result.returncode == 2  # argparse usage error

    def test_malformed_test_queries_error_names_the_file(self, trained, run_cli):
        (trained / "bad_queries.tsv").write_text("q1\tcanoe\nq2 solar\n")
        result = run_cli(
            "run", "--config", "config.json", "--method", "br",
            "--set", "paths.test_queries=bad_queries.tsv", cwd=trained,
        )
        assert result.returncode == 1, result.stderr
        assert "bad_queries.tsv: line 2: expected exactly one TAB, got 0" in result.stderr
        assert not (trained / "work" / "runs").exists()

    def test_bsf_run_matches_library_output(self, trained, run_cli):
        for method in ("br", "sr", "bsf"):
            result = run_cli("run", "--config", "config.json", "--method", method, cwd=trained)
            assert result.returncode == 0, result.stderr
        from hardrank.fusion import FusionConfig, bsf

        br = read_run_file(trained / "work" / "runs" / "br.txt")
        sr = read_run_file(trained / "work" / "runs" / "sr.txt")
        expected = bsf(br, sr, FusionConfig(method="bsf"))
        actual = read_run_file(trained / "work" / "runs" / "bsf.txt")
        assert actual.entries == expected.entries

    def test_br_and_sr_share_training_configuration(self, trained, run_cli):
        # the two rankers may differ only in their training data
        from hardrank.linear_model import load_scorer

        br = load_scorer(trained / "work" / "models" / "br.json", "ranker")
        sr = load_scorer(trained / "work" / "models" / "sr.json", "ranker")
        shared = ("epochs", "learning_rate", "seed")
        assert {k: br.metadata[k] for k in shared} == {k: sr.metadata[k] for k in shared}

    @pytest.mark.parametrize(
        "which, method, edit, message",
        [
            ("br", "br", lambda m: m["weights"].__setitem__(0, float("nan")),
             "weights holds a non-finite value"),
            ("br", "br", lambda m: m.update(bias=float("inf")), "bias holds a non-finite value"),
            ("br", "br", lambda m: m.update(bias=True), "bias must hold numbers only, got True"),
            ("br", "br", lambda m: m.pop("bias"), "missing field 'bias'"),
            ("br", "br", lambda m: m["feature_stds"].__setitem__(2, 0.0),
             "feature_stds holds a value that is not > 0"),
            ("br", "br", lambda m: m.update({n: m[n][:5] for n in FEATURE_ARRAYS}),
             "holds 5 weights, not one per ranker feature (6)"),
            ("qpp", "w_qpps", lambda m: m.update({n: m[n][:5] for n in FEATURE_ARRAYS}),
             "holds 5 weights, not one per qpp feature (6)"),
        ],
        ids=["nan_weight", "infinite_bias", "bool_bias", "no_bias", "zero_std", "short_arrays",
             "short_qpp_arrays"],
    )
    def test_model_that_cannot_score_is_input_error(
        self, ranked, run_cli, which, method, edit, message
    ):
        model_path = ranked / "work" / "models" / f"{which}.json"
        payload = json.loads(model_path.read_text())
        edit(payload)
        model_path.write_text(json.dumps(payload))
        (ranked / "work" / "runs" / f"{method}.txt").unlink(missing_ok=True)
        result = run_cli("run", "--config", "config.json", "--method", method, cwd=ranked)
        assert result.returncode == 1, result.stderr
        assert f"work/models/{which}.json: {message}" in result.stderr
        assert "Warning" not in result.stderr
        assert not (ranked / "work" / "runs" / f"{method}.txt").exists()

    def test_ranker_file_as_qpp_model_is_input_error(self, ranked, run_cli):
        models = ranked / "work" / "models"
        shutil.copyfile(models / "br.json", models / "qpp.json")
        result = run_cli("run", "--config", "config.json", "--method", "w_qpps", cwd=ranked)
        assert result.returncode == 1, result.stderr
        assert "work/models/qpp.json" in result.stderr
        assert "'ranker' model" in result.stderr
        assert not (ranked / "work" / "runs" / "w_qpps.txt").exists()

    def test_version_1_qpp_model_is_input_error(self, ranked, run_cli):
        # the QPP file format before models became one format with a kind
        qpp_path = ranked / "work" / "models" / "qpp.json"
        current = json.loads(qpp_path.read_text())
        qpp_path.write_text(json.dumps({
            "format": "hardrank-qpp",
            "version": 1,
            "weights": current["weights"],
            "bias": current["bias"],
            "feature_means": current["feature_means"],
            "feature_stds": current["feature_stds"],
            "k": 10,
            "orientation": "hardness",
            "metadata": {},
        }))
        result = run_cli("run", "--config", "config.json", "--method", "w_qpps", cwd=ranked)
        assert result.returncode == 1, result.stderr
        assert "work/models/qpp.json" in result.stderr
        assert "retrain" in result.stderr
        assert not (ranked / "work" / "runs" / "w_qpps.txt").exists()

    def test_qpp_model_of_effectiveness_orientation_is_input_error(self, ranked, run_cli):
        # psi is always hardness, so a model that would emit effectiveness cannot load
        qpp_path = ranked / "work" / "models" / "qpp.json"
        payload = json.loads(qpp_path.read_text())
        payload["metadata"]["orientation"] = "effectiveness"
        qpp_path.write_text(json.dumps(payload))
        for method in ("r_qpp", "w_qpps"):
            result = run_cli("run", "--config", "config.json", "--method", method, cwd=ranked)
            assert result.returncode == 1, result.stderr
            assert "work/models/qpp.json" in result.stderr
            assert "orientation='effectiveness'" in result.stderr
            assert not (ranked / "work" / "runs" / f"{method}.txt").exists()

    def test_version_1_index_is_input_error(self, trained, run_cli):
        # the index format before it kept anything of each document's lead
        index_path = trained / "work" / "index.bin"
        index = load_index(index_path)
        payload = _json_columns(index, 1)
        payload.update(doc_lengths=index.doc_lengths.tolist())
        del payload["leads"]
        index_path.write_text(json.dumps(payload))
        result = run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert "work/index.bin" in result.stderr
        assert "hardrank index --force" in result.stderr
        assert not (trained / "work" / "runs" / "br.txt").exists()

    def test_version_2_index_is_input_error(self, trained, run_cli):
        # the format that stored one [id, tf] list per posting and the average length
        index_path = trained / "work" / "index.bin"
        index = load_index(index_path)
        index_path.write_text(json.dumps({
            "format": "hardrank-index",
            "version": 2,
            "doc_ids": index.doc_ids,
            "doc_lengths": index.doc_lengths.tolist(),
            "avg_doc_length": index.avg_doc_length,
            "lead_terms": _lead_terms(index),
            "postings": index.postings,
        }))
        result = run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert "work/index.bin" in result.stderr
        assert "hardrank index --force" in result.stderr
        assert not (trained / "work" / "runs" / "br.txt").exists()

    def test_version_4_index_is_input_error(self, trained, run_cli):
        # the format that stored each document's length and lead terms, not a lead flag per posting
        index_path = trained / "work" / "index.bin"
        index = load_index(index_path)
        payload = _json_columns(index, 4)
        payload.update(doc_lengths=index.doc_lengths.tolist(), lead_terms=_lead_terms(index))
        del payload["leads"]
        index_path.write_text(json.dumps(payload))
        result = run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert "error: index file work/index.bin has version 4, not 7" in result.stderr
        assert "hardrank index --force" in result.stderr
        assert not (trained / "work" / "runs" / "br.txt").exists()

    def test_version_5_index_is_input_error(self, trained, run_cli):
        # the same six columns as one JSON record
        index_path = trained / "work" / "index.bin"
        index_path.write_text(json.dumps(_json_columns(load_index(index_path), 5)))
        result = run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert ("error: index file work/index.bin has version 5, not 7; "
                "rebuild it with `hardrank index --force`") in result.stderr
        assert not (trained / "work" / "runs" / "br.txt").exists()

    def test_version_6_index_is_input_error(self, trained, run_cli):
        # the same sections, after a header that counted each section's values in `lengths`
        index_path = trained / "work" / "index.bin"
        head, _, body = index_path.read_bytes().partition(b"\n")
        header = json.loads(head)
        n_postings = len(load_index(index_path).ids)
        header.update(version=6, lengths={"df": len(header["terms"]), "ids": n_postings,
                                          "tfs": n_postings, "leads": n_postings})
        index_path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        result = run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert ("error: index file work/index.bin has version 6, not 7; "
                "rebuild it with `hardrank index --force`") in result.stderr
        assert not (trained / "work" / "runs" / "br.txt").exists()

    def test_truncated_index_is_input_error(self, trained, run_cli):
        index_path = trained / "work" / "index.bin"
        index_path.write_bytes(index_path.read_bytes()[:-1])  # one lead flag short
        result = run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert "error: index file work/index.bin: leads is cut short" in result.stderr
        assert not (trained / "work" / "runs" / "br.txt").exists()

    def test_index_doc_id_with_whitespace_is_input_error(self, trained, run_cli):
        # such an id would split its field in br.txt, so the index is refused
        index_path = trained / "work" / "index.bin"
        head, _, body = index_path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["doc_ids"][1] += " x"
        index_path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        result = run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert (f"error: index file work/index.bin: doc_ids holds '{header['doc_ids'][1]}', "
                "which is empty or holds whitespace") in result.stderr
        assert not (trained / "work" / "runs" / "br.txt").exists()

    def test_r_qpp_writes_routing_log(self, ranked, run_cli):
        result = run_cli("run", "--config", "config.json", "--method", "r_qpp", cwd=ranked)
        assert result.returncode == 0, result.stderr
        log_lines = (ranked / "work" / "runs" / "r_qpp.routing.tsv").read_text().splitlines()
        assert len(log_lines) == 4
        for line in log_lines:
            qid, psi, route = line.split("\t")
            assert route in ("br", "sr")
            assert 0.0 <= float(psi) <= 1.0

    def test_routing_log_is_in_query_id_order(self, ranked):
        # like the run files, whatever the order of the test-query file
        lines = (ranked / "queries.tsv").read_text().splitlines()
        (ranked / "reversed.tsv").write_text("\n".join(lines[::-1]) + "\n")
        logs = []
        for queries in ("queries.tsv", "reversed.tsv"):
            config = load_config(ranked / "config.json", [f"paths.test_queries={queries}"])
            _, log_path = produce_run(config, "r_qpp")
            logs.append(log_path.read_bytes())
        logged = [line.split("\t")[0] for line in logs[0].decode().splitlines()]
        assert logged == sorted(line.split("\t")[0] for line in lines)
        assert logs[1] == logs[0]

    def test_r_qpp_reads_no_training_data(self, ranked, run_cli):
        args = ("run", "--config", "config.json", "--method", "r_qpp")
        assert run_cli(*args, cwd=ranked).returncode == 0
        run_path = ranked / "work" / "runs" / "r_qpp.txt"
        first = run_path.read_bytes()
        run_path.unlink()
        result = run_cli(
            *args, "--set", "paths.train_queries=absent.tsv",
            "--set", "paths.train_qrels=absent.txt", cwd=ranked,
        )
        assert result.returncode == 0, result.stderr
        assert run_path.read_bytes() == first

    @pytest.mark.parametrize("stored", [None, "0.5", True, 1.5, float("nan")])
    def test_qpp_model_without_a_valid_train_median_is_input_error(
        self, ranked, run_cli, stored
    ):
        set_train_median(ranked, stored)
        result = run_cli("run", "--config", "config.json", "--method", "r_qpp", cwd=ranked)
        assert result.returncode == 1, result.stderr
        assert "work/models/qpp.json" in result.stderr
        assert "train --which qpp" in result.stderr
        assert not (ranked / "work" / "runs" / "r_qpp.txt").exists()

    @pytest.mark.parametrize("tau, route", [("0.0", "sr"), ("1.0", "br")])
    def test_fixed_routing_threshold_decides_every_route(self, ranked, run_cli, tau, route):
        # a fixed tau needs no train_median_psi; psi lies in (0, 1), so 0.0
        # routes every query to SR and 1.0 every query to BR
        set_train_median(ranked, None)
        for method in (route, "r_qpp"):
            result = run_cli(
                "run", "--config", "config.json", "--method", method,
                "--set", f"fusion.routing_threshold={tau}", cwd=ranked,
            )
            assert result.returncode == 0, result.stderr
        runs = ranked / "work" / "runs"
        log_lines = (runs / "r_qpp.routing.tsv").read_text().splitlines()
        assert len(log_lines) == 4
        assert {line.split("\t")[2] for line in log_lines} == {route}
        routed = read_run_file(runs / "r_qpp.txt")
        chosen = read_run_file(runs / f"{route}.txt")
        assert routed.entries == chosen.entries

    def test_routing_threshold_reaches_only_the_r_qpp_run(self, ranked):
        # BSF and W-QPPS never read the threshold, so neither their scores nor
        # the config hash in their tag may follow it; R-QPP's tag does
        written = {}
        for overrides in ([], ["fusion.routing_threshold=0.3"]):
            config = load_config(ranked / "config.json", overrides)
            for method in ("bsf", "r_qpp", "w_qpps"):
                run_path, _ = produce_run(config, method)
                written[method, bool(overrides)] = run_path.read_bytes()
        for method in ("bsf", "w_qpps"):
            assert written[method, True] == written[method, False]
        tags = {
            fixed: {line.split()[5] for line in written["r_qpp", fixed].splitlines()}
            for fixed in (False, True)
        }
        assert len(tags[False]) == len(tags[True]) == 1
        assert tags[False] != tags[True]

    @pytest.mark.parametrize("method", ["bsf", "r_qpp", "w_qpps"])
    @pytest.mark.parametrize("missing", ["br", "sr"])
    def test_fusion_without_a_ranker_run_is_input_error(self, trained, run_cli, method, missing):
        other = "sr" if missing == "br" else "br"
        args = ("run", "--config", "config.json", "--method")
        assert run_cli(*args, other, cwd=trained).returncode == 0
        result = run_cli(*args, method, cwd=trained)
        assert result.returncode == 1, result.stderr
        assert f"work/runs/{missing}.txt does not exist" in result.stderr
        assert f"hardrank run --method {missing}" in result.stderr
        assert sorted(p.name for p in (trained / "work" / "runs").iterdir()) == [f"{other}.txt"]

    @pytest.mark.parametrize("method", ["bsf", "r_qpp", "w_qpps"])
    @pytest.mark.parametrize(
        "which, edit",
        [
            ("br", lambda lines: [line for line in lines if not line.startswith("q1 ")]),
            ("sr", lambda lines: [line for line in lines if not line.startswith("q1 ")]
             + [line for line in lines if line.startswith("q1 ")][:-1]),
            ("br", lambda lines: lines + ["q9 Q0 a_rel 1 0.5 br"]),
        ],
        ids=["br-query-dropped", "sr-document-dropped", "br-non-test-query"],
    )
    def test_fusion_of_mismatched_runs_is_input_error(self, ranked, run_cli, method, which, edit):
        runs = ranked / "work" / "runs"
        path = runs / f"{which}.txt"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        result = run_cli("run", "--config", "config.json", "--method", method, cwd=ranked)
        assert result.returncode == 1, result.stderr
        assert "ranks other queries or documents" in result.stderr
        assert f"work/runs/{which}.txt" in result.stderr
        assert sorted(p.name for p in runs.iterdir()) == ["br.txt", "sr.txt"]

    @pytest.mark.parametrize("method", ["bsf", "r_qpp", "w_qpps"])
    def test_fusion_of_runs_at_another_depth_is_input_error(
        self, trained, ranked_template, run_cli, method
    ):
        # runs left by another run_depth rank a part of some query's candidates
        args = ("run", "--config", "config.json", "--method")
        runs = trained / "work" / "runs"
        for which in ("br", "sr"):
            result = run_cli(*args, which, "--set", "run_depth=2", cwd=trained)
            assert result.returncode == 0, result.stderr
        shallow = read_run_file(runs / "br.txt").entries
        deep = read_run_file(ranked_template / "work" / "runs" / "br.txt").entries
        assert any(set(shallow[qid].doc_ids) != set(deep[qid].doc_ids) for qid in deep)
        result = run_cli(*args, method, cwd=trained)
        assert result.returncode == 1, result.stderr
        assert ("work/runs/br.txt ranks other queries or documents than the BM25 test "
                "candidates") in result.stderr
        assert sorted(p.name for p in runs.iterdir()) == ["br.txt", "sr.txt"]

    def test_an_external_run_over_the_candidates_fuses_by_every_method(self, ranked, run_cli):
        # a hand-written sr.txt over the same candidates, every score negated,
        # stands in for an outside ranker's run
        from hardrank import fusion
        from hardrank.corpus_io import RunList, rank_records, read_queries_file, write_run_file
        from hardrank.linear_model import load_scorer
        from hardrank.pipeline import candidates_for
        from hardrank.qpp import estimate_batch

        runs = ranked / "work" / "runs"
        entries = read_run_file(runs / "sr.txt").entries
        write_run_file(RunList({qid: rank_records(zip(hits.doc_ids, (-hits.scores).tolist()))
                                for qid, hits in entries.items()}, tag="external"),
                       runs / "sr.txt")
        for method in ("bsf", "r_qpp", "w_qpps"):
            result = run_cli("run", "--config", "config.json", "--method", method, cwd=ranked)
            assert result.returncode == 0, result.stderr
        config = load_config(ranked / "config.json")
        index = load_index(config.path("index"))
        queries = read_queries_file(config.path("test_queries"))
        qpp_model = load_scorer(ranked / "work" / "models" / "qpp.json", "qpp")
        psi = estimate_batch(qpp_model, index, queries, candidates_for(config, index, queries))
        br, sr = (read_run_file(runs / f"{which}.txt") for which in ("br", "sr"))
        assert sr.entries != entries
        tau = qpp_model.metadata["train_median_psi"]
        expected = {"bsf": fusion.bsf(br, sr), "w_qpps": fusion.w_qpps(br, sr, psi),
                    "r_qpp": fusion.r_qpp(br, sr, psi, tau)[0]}
        for method, run in expected.items():
            assert read_run_file(runs / f"{method}.txt") == run, method

    @pytest.mark.parametrize(
        "method, absent",
        [
            ("bsf", ["corpus", "models_dir"]),
            ("r_qpp", ["corpus"]),
            ("w_qpps", ["corpus"]),
        ],
        ids=["bsf", "r_qpp", "w_qpps"],
    )
    def test_fusion_reads_no_corpus_and_no_ranker_model(self, ranked, run_cli, method, absent):
        args = ("run", "--config", "config.json", "--method", method)
        assert run_cli(*args, cwd=ranked).returncode == 0
        run_path = ranked / "work" / "runs" / f"{method}.txt"
        first = run_path.read_bytes()
        run_path.unlink()
        for which in ("br", "sr"):
            (ranked / "work" / "models" / f"{which}.json").unlink()
        overrides = [arg for key in absent for arg in ("--set", f"paths.{key}=absent")]
        result = run_cli(*args, *overrides, cwd=ranked)
        assert result.returncode == 0, result.stderr
        assert run_path.read_bytes() == first

    def test_eval_reports_zero_delta_for_baseline_only(self, trained, run_cli):
        run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        result = run_cli(
            "eval", "work/runs/br.txt", "--baseline", "br", "--config", "config.json",
            cwd=trained,
        )
        assert result.returncode == 0, result.stderr
        record = json.loads((trained / "work" / "reports" / "report.jsonl").read_text())
        assert record["system"] == "br"
        assert record["delta_ndcg10_pct"] is None

    @pytest.mark.parametrize(
        "command, output",
        [
            (("run", "--method", "sr"), "work/runs/sr.txt"),
            (("eval", "work/runs/br.txt", "--baseline", "br"), "work/reports/report.txt"),
        ],
        ids=["run", "eval"],
    )
    def test_directory_as_output_file_is_input_error(self, trained, run_cli, command, output):
        assert run_cli("run", "--config", "config.json", "--method", "br", cwd=trained).returncode == 0
        (trained / output).mkdir(parents=True)
        result = run_cli(*command, "--config", "config.json", cwd=trained)
        assert result.returncode == 1, result.stderr
        assert f"error: {output} is a directory, not a file" in result.stderr

    def test_eval_of_two_runs_with_one_system_name_is_input_error(self, trained, run_cli):
        assert run_cli("run", "--config", "config.json", "--method", "br", cwd=trained).returncode == 0
        (trained / "x").mkdir()
        shutil.copyfile(trained / "work" / "runs" / "br.txt", trained / "x" / "br.txt")
        result = run_cli(
            "eval", "work/runs/br.txt", "x/br.txt", "--baseline", "br",
            "--config", "config.json", cwd=trained,
        )
        assert result.returncode == 1, result.stderr
        assert "work/runs/br.txt and x/br.txt share the system name 'br'" in result.stderr
        assert not (trained / "work" / "reports").exists()

    @pytest.mark.parametrize(
        "override, header",
        [
            ("metrics.ndcg_k=3", ["system", "nDCG@3", "RR", "p(nDCG@3)", "p(RR)"]),
            ("metrics.rr_cutoff=1", ["system", "nDCG@10", "RR@1", "p(nDCG@10)", "p(RR@1)"]),
        ],
        ids=["ndcg_k", "rr_cutoff"],
    )
    def test_eval_header_names_the_cutoffs(self, ranked, run_cli, override, header):
        result = run_cli(
            "eval", "work/runs/br.txt", "work/runs/sr.txt", "--baseline", "br",
            "--config", "config.json", "--set", override, cwd=ranked,
        )
        assert result.returncode == 0, result.stderr
        text = (ranked / "work" / "reports" / "report.txt").read_text()
        assert text.splitlines()[0].split() == header
        assert result.stdout.startswith(text)
        # the jsonl keys stay put; their values follow the cutoff
        config = load_config(ranked / "config.json", [override])
        metrics = config.section("metrics")
        runs_dir = ranked / "work" / "runs"
        runs = {name: read_run_file(runs_dir / f"{name}.txt") for name in ("br", "sr")}
        expected = build_report(
            runs,
            read_qrels_file(ranked / "qrels.txt"),
            "br",
            k=metrics["ndcg_k"],
            rr_cutoff=metrics["rr_cutoff"],
        )
        records = (ranked / "work" / "reports" / "report.jsonl").read_text().splitlines()
        assert records == report_jsonl(expected)

    def test_eval_without_a_positive_judgment_names_the_qrels_and_setting(self, ranked, run_cli):
        graded = (ranked / "qrels.txt").read_text().splitlines()
        zeroed = [" ".join(line.split()[:-1] + ["0"]) for line in graded]
        (ranked / "zero_qrels.txt").write_text("\n".join(zeroed) + "\n")
        args = ("eval", "work/runs/br.txt", "work/runs/sr.txt", "--baseline", "br",
                "--config", "config.json", "--set", "paths.test_qrels=zero_qrels.txt")
        result = run_cli(*args, cwd=ranked)
        assert result.returncode == 1, result.stderr
        assert "zero_qrels.txt has a document graded >= 1" in result.stderr
        assert "metrics.include_no_positive" in result.stderr
        assert not (ranked / "work" / "reports").exists()
        result = run_cli(*args, "--set", "metrics.include_no_positive=true", cwd=ranked)
        assert result.returncode == 0, result.stderr

    def test_eval_of_one_judged_query_gives_no_p_value(self, ranked, run_cli):
        one = [line for line in (ranked / "qrels.txt").read_text().splitlines()
               if line.startswith("q1 ")]
        (ranked / "one_qrels.txt").write_text("\n".join(one) + "\n")
        result = run_cli(
            "eval", "work/runs/br.txt", "work/runs/sr.txt", "--baseline", "br",
            "--config", "config.json", "--set", "paths.test_qrels=one_qrels.txt", cwd=ranked,
        )
        assert result.returncode == 0, result.stderr
        text = (ranked / "work" / "reports" / "report.txt").read_text()
        assert text.splitlines()[3].split()[0] == "sr"
        assert text.splitlines()[3].split()[-2:] == ["-", "-"]
        assert "queries: 1 evaluated, 0 excluded" in text
        records = (ranked / "work" / "reports" / "report.jsonl").read_text().splitlines()
        assert [(r["p_ndcg10"], r["p_rr"]) for r in map(json.loads, records)] == [(None, None)] * 2

    @pytest.mark.parametrize("include", ["false", "true"])
    def test_eval_of_empty_qrels_names_the_file_and_no_setting(self, ranked, run_cli, include):
        # setting metrics.include_no_positive cannot help, so the error does not suggest it
        (ranked / "empty_qrels.txt").write_text("")
        result = run_cli(
            "eval", "work/runs/br.txt", "work/runs/sr.txt", "--baseline", "br",
            "--config", "config.json", "--set", "paths.test_qrels=empty_qrels.txt",
            "--set", f"metrics.include_no_positive={include}", cwd=ranked,
        )
        assert result.returncode == 1, result.stderr
        assert "test qrels file empty_qrels.txt holds no judgment" in result.stderr
        assert "include_no_positive" not in result.stderr
        assert "positive" not in result.stderr
        assert not (ranked / "work" / "reports").exists()

    def test_eval_missing_baseline_is_input_error(self, trained, run_cli):
        run_cli("run", "--config", "config.json", "--method", "br", cwd=trained)
        result = run_cli(
            "eval", "work/runs/br.txt", "--baseline", "nope", "--config", "config.json",
            cwd=trained,
        )
        assert result.returncode == 1
        assert "nope" in result.stderr


class TestEveryTextInput:
    """Every text file the CLI reads is read by one reader: a leading BOM or
    CRLF line ends change no output, and a byte that is not UTF-8 exits 1
    with a message that names the file. Commands run in this process."""

    # input -> (its file in the ranked fixture, a command that reads it, a file it writes)
    CASES = {
        "queries": ("queries.tsv", ("train", "--which", "br"), "work/models/br.json"),
        "qrels": ("qrels.txt", ("train", "--which", "qpp"), "work/models/qpp.json"),
        "corpus": ("corpus.jsonl", ("index", "--force"), "work/index.bin"),
        "run": ("work/runs/br.txt", ("run", "--method", "bsf"), "work/runs/bsf.txt"),
        "enriched": ("work/enriched.tsv", ("train", "--which", "sr"), "work/models/sr.json"),
        "config": ("config.json", ("run", "--method", "br"), "work/runs/br.txt"),
        "lexicon": ("lexicon.txt", ("enrich",), "work/enriched.tsv"),
        "model": ("work/models/br.json", ("run", "--method", "br"), "work/runs/br.txt"),
    }

    @staticmethod
    def main(workdir, *args):
        return cli.main([*args, "--config", str(workdir / "config.json")])

    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        """The tiny fixture with a lexicon and a multi-line config, after
        index, enrich, train x3 and `run` br and sr."""
        workdir = tmp_path_factory.mktemp("inputs")
        write_fixture(workdir)
        (workdir / "lexicon.txt").write_text("canoe paddle\nriver solar\n")
        config = json.loads((workdir / "config.json").read_text())
        config["hardness"] = {"lexicon_file": "lexicon.txt"}
        (workdir / "config.json").write_text(json.dumps(config, indent=1))
        for args in (("index",), ("enrich",), ("train", "--which", "br"),
                     ("train", "--which", "sr"), ("train", "--which", "qpp"),
                     ("run", "--method", "br"), ("run", "--method", "sr")):
            assert self.main(workdir, *args) == cli.EXIT_OK, args
        return workdir

    def output_of(self, template, tmp_path, name, change):
        """The exit code and the output bytes of the case's command in a copy
        of `template` whose input file is `change(its bytes)`."""
        relpath, args, output = self.CASES[name]
        workdir = shutil.copytree(template, tmp_path / f"copy{len(list(tmp_path.iterdir()))}")
        path = workdir / relpath
        path.write_bytes(change(path.read_bytes()))
        (workdir / output).unlink(missing_ok=True)
        code = self.main(workdir, *args)
        return code, (workdir / output).read_bytes() if code == cli.EXIT_OK else None, path

    @pytest.mark.parametrize("name", CASES)
    def test_a_bom_or_crlf_line_ends_change_no_output(self, template, tmp_path, name):
        plain = self.output_of(template, tmp_path, name, lambda data: data)[:2]
        assert plain[0] == cli.EXIT_OK and plain[1]
        assert b"\n" in (template / self.CASES[name][0]).read_bytes()  # CRLF changes a byte
        for change in (lambda data: b"\xef\xbb\xbf" + data,
                       lambda data: data.replace(b"\n", b"\r\n")):
            assert self.output_of(template, tmp_path, name, change)[:2] == plain

    @pytest.mark.parametrize("name", CASES)
    def test_a_byte_that_is_not_utf8_exits_1_naming_the_file(self, template, tmp_path, capsys,
                                                              name):
        def spoil(data):
            at = data.index(b"\n") + 1
            return data[:at] + b"\xff" + data[at:]

        code, _, path = self.output_of(template, tmp_path, name, spoil)
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path} cannot be read: 'utf-8' codec can't decode byte 0xff" in err

    @pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="needs Linux /proc")
    @pytest.mark.parametrize("key", ["train_queries", "index"])
    def test_an_input_that_fails_to_read_exits_1_naming_it(self, template, capsys, key):
        # /proc/self/mem opens as a regular file, but reading at offset 0 is an I/O error
        code = self.main(template, "train", "--which", "br", "--set",
                         f"paths.{key}=/proc/self/mem")
        assert code == cli.EXIT_INPUT
        assert "/proc/self/mem cannot be read: Input/output error" in capsys.readouterr().err

    @pytest.mark.parametrize("value, problem", [("absent.bin", "does not exist"),
                                                ("work", "is not a file")])
    def test_a_missing_or_directory_index_says_to_build_it(self, template, capsys, value,
                                                             problem):
        code = self.main(template, "train", "--which", "br", "--set", f"paths.index={value}")
        assert code == cli.EXIT_INPUT
        expected = f"{template / value} {problem} (run the index command first)"
        assert expected in capsys.readouterr().err


class TestExitCodes:
    """`cli.main` exits 1 on a ValueError, ConfigError and ParseError
    included, and 2 on any other exception."""

    @pytest.mark.parametrize(
        "error, message",
        [(RuntimeError("boom"), "runtime failure: boom"),
         (FileNotFoundError(2, "No such file or directory", "gone.txt"),
          "runtime failure: [Errno 2] No such file or directory: 'gone.txt'")],
        ids=["runtime_error", "file_not_found"],
    )
    def test_a_stage_failure_that_is_no_value_error_exits_2(self, tmp_path, monkeypatch,
                                                            capsys, error, message):
        def fail(config, which):
            raise error

        monkeypatch.setattr(cli, "train_ranker", fail)
        (tmp_path / "config.json").write_text("{}")
        code = cli.main(["train", "--which", "br", "--config", str(tmp_path / "config.json")])
        assert code == cli.EXIT_RUNTIME
        assert message in capsys.readouterr().err

    def test_an_endpoint_that_is_not_http_exits_1_naming_the_key(self, workdir, run_cli):
        assert run_cli("index", "--config", "config.json", cwd=workdir).returncode == 0
        work = workdir / "work"
        before = {path: path.read_bytes() for path in work.rglob("*") if path.is_file()}
        bad_url = ["--set", "generator.type=http", "--set", "generator.endpoint_url=file:///etc/hosts"]
        for command in (["enrich"], ["train", "--which", "br"], ["run", "--method", "br"]):
            result = run_cli(*command, "--config", "config.json", *bad_url, cwd=workdir)
            assert result.returncode == 1, (command, result.stderr)
            assert "generator.endpoint_url must be an http(s) URL, got 'file:///etc/hosts'" \
                in result.stderr, command
        # refused before any stage reads an input or writes an artifact
        assert {path: path.read_bytes() for path in work.rglob("*") if path.is_file()} == before

    def test_a_grade_above_the_maximum_exits_1_naming_the_file_and_line(self, workdir, run_cli):
        # nDCG's gain 2**1024 - 1 would overflow a float
        assert run_cli("index", "--config", "config.json", cwd=workdir).returncode == 0
        qrels = workdir / "qrels.txt"
        lines = qrels.read_text().splitlines()
        lines[1] = " ".join([*lines[1].split()[:3], "1024"])
        qrels.write_text("\n".join(lines) + "\n")
        # `eval` reads the qrels before any run file
        eval_ = ["eval", "work/runs/br.txt", "--baseline", "br"]
        for command in (["train", "--which", "qpp"], eval_):
            result = run_cli(*command, "--config", "config.json", cwd=workdir)
            assert result.returncode == 1, (command, result.stderr)
            assert "error: qrels.txt: line 2: grade 1024 outside 0..100" in result.stderr, command
        assert not (workdir / "work" / "models").exists()
        assert not (workdir / "work" / "reports" / "report.txt").exists()

    def test_an_integer_too_large_for_a_float_exits_1_naming_the_key(self, workdir, run_cli):
        result = run_cli("train", "--which", "br", "--config", "config.json",
                         "--set", f"bm25.k1={10**400}", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "error: bm25.k1 is an integer too large for a float" in result.stderr
        assert not (workdir / "work").exists()

    def test_a_number_past_the_integer_digit_limit_exits_1_naming_the_key(self, workdir, run_cli):
        # past Python's 4,300-digit limit for reading an integer
        result = run_cli("train", "--which", "br", "--config", "config.json",
                         "--set", "bm25.k1=1" + "0" * 5000, cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "error: bm25.k1 has too many digits to read as a number" in result.stderr
        assert len(result.stderr.encode()) < 300
        assert not (workdir / "work").exists()

    def test_an_empty_lexicon_file_exits_1_naming_the_key(self, workdir, run_cli):
        # "" names the config's directory, as for every paths.* key, not "no lexicon"
        assert run_cli("index", "--config", "config.json", cwd=workdir).returncode == 0
        result = run_cli("enrich", "--config", "config.json", "--set", "hardness.lexicon_file=",
                         cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "cannot be read" in result.stderr
        assert "(hardness.lexicon_file)" in result.stderr
        assert not (workdir / "work" / "enriched.tsv").exists()

    def test_an_effectiveness_orientation_exits_1_naming_the_key(self, workdir, run_cli):
        assert run_cli("index", "--config", "config.json", cwd=workdir).returncode == 0
        result = run_cli("train", "--which", "qpp", "--config", "config.json",
                         "--set", "qpp.orientation=effectiveness", cwd=workdir)
        assert result.returncode == 1, result.stderr
        assert "qpp.orientation must be one of ('hardness',), got 'effectiveness'" \
            in result.stderr
        assert not (workdir / "work" / "models").exists()


class TestConfigCommand:
    def test_dump_defaults(self, tmp_path, run_cli):
        result = run_cli("config", "--dump-defaults", cwd=tmp_path)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["run_depth"] == 100


class TestChildInterpreter:
    def test_child_imports_the_package_under_test(self, tmp_path, child_env):
        # a stale installed copy must not stand in for the code under test
        result = subprocess.run(
            [sys.executable, "-c", "import hardrank; print(hardrank.__file__)"],
            cwd=tmp_path,
            env=child_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert Path(result.stdout.strip()).resolve() == Path(hardrank.__file__).resolve()

    def test_parsing_modules_load_no_numpy_or_scipy(self, tmp_path, child_env):
        # `import hardrank.benchmark` is the whole set-up of a CLI benchmark run
        code = (
            "import sys, hardrank.benchmark, hardrank.corpus_io, hardrank.text; "
            "print('\\n'.join(sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=child_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        heavy = sorted(m for m in result.stdout.split() if m.split(".")[0] in ("numpy", "scipy"))
        assert not heavy, f"loaded {heavy[:5]}"

    def test_cli_import_skips_scipy_stats_and_loads_traced_modules(self, tmp_path, child_env):
        # start-up cost: scipy.special took about 0.35 s of CPU per command;
        # perfbench/tracing.install wraps functions it finds in sys.modules
        result = subprocess.run(
            [sys.executable, "-c", "import hardrank.cli, sys; print('\\n'.join(sys.modules))"],
            cwd=tmp_path,
            env=child_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        scipy = sorted(m for m in loaded if m.split(".")[0] == "scipy")
        assert not scipy, f"import hardrank.cli loaded {scipy[:5]}"
        # the HTTP generator imports its client when it first sends
        assert not loaded & {"urllib.request", "http.client", "requests"}
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        )
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        traced = {f"hardrank.{module}" for module, *_ in tracing.TARGETS}
        assert traced <= loaded, f"not loaded by import hardrank.cli: {sorted(traced - loaded)}"

    def test_only_commands_that_train_or_test_load_scipy(self, tmp_path, child_env):
        # each child runs its steps in turn through hardrank.cli.main and
        # reports, after each, its exit code and whether any scipy module is loaded
        bench = write_benchmark(tmp_path, seed=7)
        (tmp_path / "config.json").write_text(json.dumps({
            "paths": {
                "corpus": "corpus.jsonl",
                "train_queries": "queries.tsv", "train_qrels": "qrels.txt",
                "test_queries": "queries.tsv", "test_qrels": "qrels.txt",
            },
        }))
        config = load_config(tmp_path / "config.json")
        models = experiment(config, bench.corpus, bench.queries, bench.qrels,
                            bench.queries, bench.qrels).models
        for which, model in models.items():  # what `run` reads besides the index
            save_scorer(model, config.path("models_dir") / f"{which}.json")
        methods = ["br", "sr", "bsf", "r_qpp", "w_qpps"]
        runs = [str(config.path("runs_dir") / f"{method}.txt") for method in methods]
        code = (
            "import json, sys\n"
            "from hardrank.cli import main\n"
            "for step in json.loads(sys.argv[1]):\n"
            "    status = main([*step, '--config', 'config.json'])\n"
            "    scipy = any(name.split('.')[0] == 'scipy' for name in sys.modules)\n"
            "    print('RESULT', status, scipy)\n"
        )

        def check_child(steps, expected):
            result = subprocess.run(
                [sys.executable, "-c", code, json.dumps(steps)],
                cwd=tmp_path,
                env=child_env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            results = [line.split()[1:] for line in result.stdout.splitlines()
                       if line.startswith("RESULT")]
            assert results == expected, result.stderr

        no_scipy = [["index"], ["enrich"], *(["run", "--method", m] for m in methods)]
        # eval and train load scipy, so the first seven are not absent by accident
        check_child([*no_scipy, ["eval", *runs, "--baseline", "br"]],
                    [["0", "False"]] * 7 + [["0", "True"]])
        check_child([["train", "--which", "br"]], [["0", "True"]])
