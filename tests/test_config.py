"""Config loading, merging, overrides, and validation."""

import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardrank import cli
from hardrank.config import (
    DEFAULTS,
    SCHEMA,
    ConfigError,
    default_config,
    dump_defaults,
    load_config,
    validate,
)
from hardrank.corpus_io import Query
from hardrank.enrichment import (
    HardnessRule,
    HttpGenerator,
    StubGenerator,
    classify_hardness,
    enrich,
)
from hardrank.evaluation import build_report, ndcg_at_k
from hardrank.fusion import FusionConfig
from hardrank.lexical_retrieval import Bm25Params, bm25_search, score_pair, select_passage
from hardrank.pointwise_ranker import (
    build_training_set,
    extract_features,
    rerank,
    train,
)
from hardrank.qpp import train_qpp


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_defaults_pass_validation(self, tmp_path):
        config = load_config(write_config(tmp_path, {}))
        assert config.seed == DEFAULTS["seed"]
        assert config.run_depth == 100

    def test_partial_override_merges(self, tmp_path):
        config = load_config(write_config(tmp_path, {"bm25": {"k1": 1.2}}))
        assert config.bm25_params().k1 == 1.2
        assert config.bm25_params().b == 0.4

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bm52"):
            load_config(write_config(tmp_path, {"bm52": {}}))

    def test_unknown_nested_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bm25.k9"):
            load_config(write_config(tmp_path, {"bm25": {"k9": 1}}))

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bm25.b"):
            load_config(write_config(tmp_path, {"bm25": {"b": 1.5}}))

    def test_http_generator_needs_url(self, tmp_path):
        with pytest.raises(ConfigError, match="endpoint_url"):
            load_config(write_config(tmp_path, {"generator": {"type": "http"}}))

    @pytest.mark.parametrize("url", ["file:///etc/hosts", "ftp://host/x", "localhost:8000"])
    def test_http_generator_refuses_a_url_that_is_not_http(self, tmp_path, url):
        path = write_config(tmp_path, {"generator": {"type": "http", "endpoint_url": url}})
        with pytest.raises(ConfigError) as refused:
            load_config(path)
        assert str(refused.value) == f"generator.endpoint_url must be an http(s) URL, got {url!r}"

    def test_http_generator_accepts_either_scheme_in_any_case(self, tmp_path):
        for url in ("http://localhost:8000/x", "HTTPS://example.org"):
            path = write_config(tmp_path, {"generator": {"type": "http", "endpoint_url": url}})
            assert load_config(path).raw["generator"]["endpoint_url"] == url

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match=r"config file .*nope\.json cannot be read: "
                                               r"No such file or directory"):
            load_config(tmp_path / "nope.json")

    def test_directory_names_the_path(self, tmp_path):
        (tmp_path / "cfgdir").mkdir()
        with pytest.raises(ConfigError, match=r"config file .*cfgdir cannot be read: Is a directory"):
            load_config(tmp_path / "cfgdir")

    def test_directory_exits_1_from_the_cli(self, tmp_path, capsys):
        (tmp_path / "cfgdir").mkdir()
        assert cli.main(["index", "--config", str(tmp_path / "cfgdir")]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "cfgdir cannot be read" in err and "runtime failure" not in err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "content, problem",
        [(b'{"seed": ' + b"9" * 5000 + b"}", "is not valid JSON"),
         (b'{"paths": {"corpus": "c\xff.jsonl"}}',
          "cannot be read: 'utf-8' codec can't decode byte 0xff")],
        ids=["integer-over-the-digit-limit", "byte-that-is-not-utf-8"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, content, problem):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=rf"config file .*bad\.json {problem}"):
            load_config(path)

    def test_a_leading_bom_is_read_like_the_data_files(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 9}).encode())
        assert load_config(path).seed == 9

    def test_non_object_root_names_the_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        with pytest.raises(ConfigError, match=r"list\.json must hold a JSON object"):
            load_config(path)

    @pytest.mark.parametrize(
        "lexicon, reason", [(".", "Is a directory"), ("missing.txt", "No such file or directory")])
    def test_lexicon_file_must_be_a_file(self, tmp_path, lexicon, reason):
        config = load_config(write_config(tmp_path, {"hardness": {"lexicon_file": lexicon}}))
        with pytest.raises(ConfigError,
                           match=rf"cannot be read: {reason} \(hardness\.lexicon_file\)"):
            config.hardness_rule()

    def test_lexicon_file_is_read(self, tmp_path):
        (tmp_path / "lexicon.txt").write_text("canoe\npaddle river\n")
        config = load_config(write_config(tmp_path, {"hardness": {"lexicon_file": "lexicon.txt"}}))
        assert config.hardness_rule().lexicon == {"canoe", "paddle", "river"}

    def test_lexicon_file_is_tokenized_like_queries(self, tmp_path):
        # a BOM, capitals and punctuation must not make a listed word out-of-lexicon
        (tmp_path / "lexicon.txt").write_text("\ufeffalpha\nBeta river,\n", encoding="utf-8")
        hardness = {"lexicon_file": "lexicon.txt", "max_token_count": 1}
        rule = load_config(write_config(tmp_path, {"hardness": hardness})).hardness_rule()
        assert rule.lexicon == {"alpha", "beta", "river"}
        assert classify_hardness(Query("q", "Alpha beta river"), rule) == "easy"
        assert classify_hardness(Query("q", "alpha gamma river"), rule) == "hard"

    def test_lexicon_file_that_is_not_utf8_names_the_file_and_key(self, tmp_path):
        (tmp_path / "lexicon.txt").write_bytes(b"canoe \xff\xfe\n")
        config = load_config(write_config(tmp_path, {"hardness": {"lexicon_file": "lexicon.txt"}}))
        with pytest.raises(ConfigError, match=r"lexicon\.txt cannot be read: 'utf-8' codec can't "
                                               r"decode byte 0xff .*\(hardness\.lexicon_file\)"):
            config.hardness_rule()

    def test_paths_resolve_relative_to_config(self, tmp_path):
        config = load_config(write_config(tmp_path, {"paths": {"corpus": "c.jsonl"}}))
        assert config.path("corpus") == tmp_path / "c.jsonl"

    def test_fixed_threshold_accepted(self, tmp_path):
        config = load_config(
            write_config(tmp_path, {"fusion": {"routing_threshold": 0.4}})
        )
        assert config.section("fusion")["routing_threshold"] == 0.4

    def test_bad_threshold_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="routing_threshold"):
            load_config(write_config(tmp_path, {"fusion": {"routing_threshold": "p95"}}))

    @pytest.mark.parametrize(
        "override",
        [
            "hardness.acronym_pattern=5",
            'metrics.include_no_positive="no"',
            'generator.max_retries="x"',
            "generator.max_in_flight=0",
            "enrichment.use_judged_context=1",
            "generator.stub_context_terms=true",
        ],
    )
    def test_wrongly_typed_or_out_of_range_value_names_the_key(self, tmp_path, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(write_config(tmp_path, {}), [override])

    def test_section_replaced_by_a_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="'bm25' must be an object"):
            load_config(write_config(tmp_path, {}), ["bm25=5"])


class TestOverrides:
    def test_set_numeric(self):
        raw = validate(DEFAULTS, ["bm25.k1=1.4"])
        assert raw["bm25"]["k1"] == 1.4

    def test_set_string(self):
        raw = validate(
            DEFAULTS, ["generator.type=http", "generator.endpoint_url=http://localhost"]
        )
        assert raw["generator"]["type"] == "http"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate(DEFAULTS, ["bm25.zzz=1"])

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            validate(DEFAULTS, ["bm25.k1"])


def _rows(schema, trail=""):
    for name, row in schema.items():
        if isinstance(row, dict):
            yield from _rows(row, f"{trail}{name}.")
        else:
            yield f"{trail}{name}", row


def _with(dotted, value):
    return validate(DEFAULTS, [f"{dotted}={json.dumps(value)}"])


class TestSchema:
    def test_defaults_are_the_schema_defaults(self):
        for dotted, row in _rows(SCHEMA):
            node = DEFAULTS
            for part in dotted.split("."):
                node = node[part]
            assert node == row.default, dotted

    @pytest.mark.parametrize("dotted", list(dict(_rows(SCHEMA))))
    def test_every_key_checks_its_type(self, dotted):
        row = dict(_rows(SCHEMA))[dotted]
        # one value of each type the row does not accept (a number key takes
        # integers too, and no key takes a list) must fail naming the key
        samples = {int: 7, float: 0.5, str: "x", bool: True, type(None): None}
        wrong = [[1]] + [
            value for kind, value in samples.items()
            if kind not in row.types and not (kind is int and float in row.types)
        ]
        for value in wrong:
            with pytest.raises(ConfigError, match=dotted.replace(".", r"\.")):
                validate(_with(dotted, value))

    @pytest.mark.parametrize("dotted", [dotted for dotted, row in _rows(SCHEMA)
                                        if float in row.types])
    def test_an_integer_for_a_float_key_is_stored_as_a_float(self, dotted):
        # so `1` and `1.0` give the same config, artifacts and run tags
        node = _with(dotted, 1)
        for part in dotted.split("."):
            node = node[part]
        assert type(node) is float and node == 1.0
        key = dotted.replace(".", r"\.")
        with pytest.raises(ConfigError, match=rf"{key} is an integer too large for a float"):
            _with(dotted, 10**400)

    @pytest.mark.parametrize("dotted", [dotted for dotted, row in _rows(SCHEMA)
                                        if int in row.types and float not in row.types])
    def test_an_integer_for_an_int_key_stays_an_int(self, dotted):
        # only float keys convert: an epoch count or cutoff read from a file stays an int
        row = dict(_rows(SCHEMA))[dotted]
        value = row.default if type(row.default) is int else 10
        raw = value
        for part in reversed(dotted.split(".")):
            raw = {part: raw}
        node = validate(raw)
        for part in dotted.split("."):
            node = node[part]
        assert type(node) is int and node == value

    def test_an_integer_routing_threshold_gives_the_run_tag_of_its_float(self):
        taus = [_with("fusion.routing_threshold", value)["fusion"]["routing_threshold"]
                for value in (1, 1.0)]
        tags = {FusionConfig("r_qpp", "per_query_min_max", tau).config_hash() for tau in taus}
        assert tags == {FusionConfig("r_qpp", "per_query_min_max", 1.0).config_hash()}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            validate(_with("fusion.routing_threshold", value))


class TestDefaults:
    def test_dump_is_valid_json(self):
        assert json.loads(dump_defaults()) == DEFAULTS

    def test_default_config_validates(self):
        config = default_config()
        assert config.hardness_rule().max_token_count == 5


# (library callable, its parameter, the config key whose default it repeats)
LIBRARY_DEFAULTS = [
    (Bm25Params, "k1", "bm25.k1"),
    (Bm25Params, "b", "bm25.b"),
    (HardnessRule, "max_token_count", "hardness.max_token_count"),
    (HardnessRule, "acronym_pattern", "hardness.acronym_pattern"),
    (HardnessRule, "min_context_terms", "hardness.min_context_terms"),
    (StubGenerator, "context_terms", "generator.stub_context_terms"),
    (HttpGenerator, "auth_token_env", "generator.auth_token_env"),
    (HttpGenerator, "max_retries", "generator.max_retries"),
    (enrich, "passage_window", "enrichment.passage_window"),
    (enrich, "use_judged_context", "enrichment.use_judged_context"),
    (select_passage, "window", "enrichment.passage_window"),
    (build_training_set, "depth", "run_depth"),
    (build_training_set, "negatives_per_positive", "ranker.negatives_per_positive"),
    (build_training_set, "label_threshold", "ranker.label_threshold"),
    (build_training_set, "seed", "seed"),
    (train, "epochs", "ranker.epochs"),
    (train, "learning_rate", "ranker.learning_rate"),
    (train, "seed", "seed"),
    (train_qpp, "epochs", "qpp.epochs"),
    (train_qpp, "learning_rate", "qpp.learning_rate"),
    (train_qpp, "k", "qpp.k"),
    (train_qpp, "orientation", "qpp.orientation"),
    (FusionConfig, "normalize", "fusion.normalize"),
    (FusionConfig, "routing_threshold", "fusion.routing_threshold"),
    (build_report, "k", "metrics.ndcg_k"),
    (build_report, "rr_cutoff", "metrics.rr_cutoff"),
    (build_report, "gain", "metrics.gain"),
    (build_report, "include_no_positive", "metrics.include_no_positive"),
    (ndcg_at_k, "k", "metrics.ndcg_k"),
    (ndcg_at_k, "gain", "metrics.gain"),
]


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


class TestLibraryDefaults:
    """A library caller that leaves a setting out gets what a config that
    leaves it out gets."""

    @pytest.mark.parametrize(
        "function, parameter, dotted", LIBRARY_DEFAULTS,
        ids=[f"{f.__name__}.{p}" for f, p, _ in LIBRARY_DEFAULTS],
    )
    def test_repeats_the_config_default(self, function, parameter, dotted):
        value = DEFAULTS
        for part in dotted.split("."):
            value = value[part]
        default = _default(function, parameter)
        # the type too: a bool default must not stand for an int one
        assert (type(default), default) == (type(value), value)

    @pytest.mark.parametrize(
        "function",
        [bm25_search, score_pair, enrich, build_training_set, extract_features, rerank],
    )
    def test_bm25_params_default_to_the_config(self, function):
        assert _default(function, "params") == default_config().bm25_params()


class TestSectionOverrides:
    """A ``--set section={...}`` object merges like a file section."""

    @pytest.mark.parametrize(
        "file_bm25, override, expected",
        [
            ({}, "bm25={}", {"k1": 0.9, "b": 0.4}),
            ({}, 'bm25={"k1": 1.2}', {"k1": 1.2, "b": 0.4}),
            ({"b": 0.7}, 'bm25={"k1": 1.2}', {"k1": 1.2, "b": 0.7}),
            ({"k1": 1.2}, "bm25={}", {"k1": 1.2, "b": 0.4}),
        ],
    )
    def test_section_object_merges_over_the_file(self, tmp_path, file_bm25, override, expected):
        config = load_config(write_config(tmp_path, {"bm25": file_bm25}), [override])
        assert config.raw == {**DEFAULTS, "bm25": expected}

    def test_unknown_key_inside_a_section_object_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown config key 'bm25\.zz'"):
            load_config(write_config(tmp_path, {}), ['bm25={"k1": 1.2, "b": 0.4, "zz": 1}'])


_SECTIONS = sorted(name for name, row in SCHEMA.items() if isinstance(row, dict))
_KEYS = sorted({name for row in SCHEMA.values() if isinstance(row, dict) for name in row})
_junk = st.sampled_from(["", "zz", "k9"]) | st.text(max_size=4)
_names = st.sampled_from(_SECTIONS + _KEYS + ["seed", "run_depth"]) | _junk
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_names, inner, max_size=3),
    max_leaves=8,
)
_overrides = st.lists(
    st.builds(
        lambda dotted, value: f"{'.'.join(dotted)}={value}",
        st.tuples(st.sampled_from(_SECTIONS + ["seed"]) | _junk)
        | st.tuples(st.sampled_from(_SECTIONS) | _junk, _names)
        | st.lists(_names, min_size=1, max_size=3),
        _json_values.map(json.dumps) | st.text(max_size=8),
    ),
    max_size=4,
)


@pytest.fixture(scope="module")
def partial_config(tmp_path_factory):
    return write_config(
        tmp_path_factory.mktemp("config"), {"bm25": {"k1": 1.2}, "paths": {"corpus": "c.jsonl"}}
    )


@settings(max_examples=300, deadline=None)
@given(overrides=_overrides)
def test_any_overrides_give_a_config_or_a_config_error(partial_config, overrides):
    try:
        config = load_config(partial_config, overrides)
    except ConfigError:
        return
    assert validate(config.raw) == config.raw
