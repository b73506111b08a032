"""Pipeline configuration: one JSON file drives every command.

`SCHEMA` is the one list of config keys. Each key has one row: its
default, the types it accepts, a numeric range and the allowed strings.
One walk over it, `_resolve`, turns a partial config into the full one:
`DEFAULTS` is that walk over an empty object, and `validate` is that walk
plus the one rule that spans keys. The defaults are the documented
toolkit choices (BM25 k1=0.9/b=0.4, run depth 100, hardness thresholds,
judged enrichment context, inverted QPP orientation, train-median
routing threshold). The file overrides the defaults, and each
``--set section.key=value`` flag is the object ``{"section": {"key": value}}``
layered over the file: objects merge key by key, so ``--set section={...}``
merges like a file section. Unknown keys are rejected so typos fail
loudly instead of silently using a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from .corpus_io import ParseError, parse_file
from .enrichment import HardnessRule
from .evaluation import GAINS
from .fusion import NORMALIZATIONS
from .lexical_retrieval import Bm25Params
from .linear_model import QPP_ORIENTATIONS
from .text import tokenize


class Key(NamedTuple):
    """One key's row. `int` is an integer and `float` any finite number, never a
    bool; `lo`/`hi` bound numbers and `choices` lists the allowed strings."""

    default: Any
    types: tuple[type, ...]
    lo: float | None = None
    hi: float | None = None
    choices: tuple[str, ...] | None = None


_INT, _NUM, _STR, _BOOL = (int,), (float,), (str,), (bool,)
_NONE = type(None)

SCHEMA: dict[str, Any] = {
    "seed": Key(13, _INT),
    "run_depth": Key(100, _INT, lo=1),
    "paths": {
        "corpus": Key("corpus.jsonl", _STR),
        "train_queries": Key("queries.tsv", _STR),
        "train_qrels": Key("qrels.txt", _STR),
        "test_queries": Key("queries.tsv", _STR),
        "test_qrels": Key("qrels.txt", _STR),
        "index": Key("work/index.bin", _STR),
        "enriched_queries": Key("work/enriched.tsv", _STR),
        "models_dir": Key("work/models", _STR),
        "runs_dir": Key("work/runs", _STR),
        "reports_dir": Key("work/reports", _STR),
    },
    "bm25": {"k1": Key(0.9, _NUM, lo=1e-9), "b": Key(0.4, _NUM, lo=0.0, hi=1.0)},
    "hardness": {
        "max_token_count": Key(5, _INT, lo=1),
        "acronym_pattern": Key(True, _BOOL),
        "min_context_terms": Key(2, _INT, lo=0),
        "lexicon_file": Key(None, (str, _NONE)),
    },
    "generator": {
        "type": Key("stub", _STR, choices=("stub", "http")),
        "endpoint_url": Key("", _STR),
        "auth_token_env": Key("HARDRANK_GENERATOR_TOKEN", _STR),
        "max_retries": Key(3, _INT, lo=0),
        "max_in_flight": Key(4, _INT, lo=1),
        "stub_context_terms": Key(6, _INT, lo=0),
    },
    "enrichment": {
        "use_judged_context": Key(True, _BOOL),
        "passage_window": Key(120, _INT, lo=1),
    },
    "ranker": {
        "epochs": Key(500, _INT, lo=1),
        "learning_rate": Key(0.1, _NUM, lo=1e-12),
        "negatives_per_positive": Key(4, _INT, lo=1),
        "label_threshold": Key(1, _INT, lo=1),
    },
    "qpp": {
        "epochs": Key(500, _INT, lo=1),
        "learning_rate": Key(0.05, _NUM, lo=1e-12),
        "k": Key(10, _INT, lo=1),
        "orientation": Key("hardness", _STR, choices=QPP_ORIENTATIONS),
    },
    "fusion": {
        "normalize": Key("per_query_min_max", _STR, choices=NORMALIZATIONS),
        # a fixed tau in [0, 1], or the training-query median psi the QPP model keeps
        "routing_threshold": Key("train_median", (float, str), lo=0.0, hi=1.0,
                                 choices=("train_median",)),
    },
    "metrics": {
        "ndcg_k": Key(10, _INT, lo=1),
        "rr_cutoff": Key(None, (int, _NONE), lo=1),
        "gain": Key("exp", _STR, choices=GAINS),
        "include_no_positive": Key(False, _BOOL),
    },
}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               _NONE: "null"}


class ConfigError(ValueError):
    """Invalid or inconsistent pipeline configuration."""


@dataclass
class PipelineConfig:
    raw: dict[str, Any]
    base_dir: Path = field(default_factory=Path)

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def run_depth(self) -> int:
        return self.raw["run_depth"]

    def path(self, name: str, section: str = "paths") -> Path:
        value = self.raw[section][name]
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path

    def bm25_params(self) -> Bm25Params:
        return Bm25Params(**self.raw["bm25"])

    def hardness_rule(self) -> HardnessRule:
        section = self.raw["hardness"]
        lexicon = None
        if section.get("lexicon_file") is not None:
            try:
                text = parse_file("".join, self.path("lexicon_file", "hardness"))
            except ParseError as exc:
                raise ConfigError(f"{exc} (hardness.lexicon_file)") from None
            lexicon = frozenset(tokenize(text))
        return HardnessRule(
            max_token_count=section["max_token_count"],
            acronym_pattern=section["acronym_pattern"],
            min_context_terms=section["min_context_terms"],
            lexicon=lexicon,
        )

    def section(self, name: str) -> dict[str, Any]:
        return self.raw[name]


def _accepts(kind: type, value: Any) -> bool:
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check(where: str, key: Key, value: Any) -> Any:
    """`value` as stored, once it passes `key`'s row: a number for a key
    that takes floats is a float, so `1` and `1.0` give the same config."""
    if not any(_accepts(kind, value) for kind in key.types):
        expected = " or ".join(_TYPE_NAMES[kind] for kind in key.types)
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    if isinstance(value, str):
        if key.choices is not None and value not in key.choices:
            raise ConfigError(f"{where} must be one of {key.choices}, got {value!r}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if float in key.types:
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"{where} is an integer too large for a float") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        if key.lo is not None and value < key.lo:
            raise ConfigError(f"{where} must be >= {key.lo}, got {value}")
        if key.hi is not None and value > key.hi:
            raise ConfigError(f"{where} must be <= {key.hi}, got {value}")
    return value


def _resolve(schema: dict[str, Any], value: Any, trail: str = "") -> dict[str, Any]:
    """The full config for `value`, a possibly partial object shaped like
    `schema`: unknown keys fail, sections must be objects, missing keys take
    their defaults and every value is checked against its row."""
    if not isinstance(value, dict):
        raise ConfigError(f"config key {trail!r} must be an object")
    prefix = f"{trail}." if trail else ""
    for name in value:
        if name not in schema:
            raise ConfigError(f"unknown config key {prefix + name!r}")
    out = {}
    for name, row in schema.items():
        if isinstance(row, dict):
            out[name] = _resolve(row, value.get(name, {}), prefix + name)
        else:
            out[name] = _check(prefix + name, row, value.get(name, row.default))
    return out


DEFAULTS: dict[str, Any] = _resolve(SCHEMA, {})


def _layer(base: Any, top: Any) -> Any:
    """`top` over `base`: objects merge key by key, any other value replaces."""
    if not (isinstance(base, dict) and isinstance(top, dict)):
        return top
    return {**base, **{name: _layer(base.get(name), value) for name, value in top.items()}}


def validate(raw: dict[str, Any], overrides: Iterable[str] = ()) -> dict[str, Any]:
    """Layer each ``section.key=value`` override over `raw` as the object
    ``{"section": {"key": value}}`` (the value parses as JSON, else as a
    string), resolve the result against `SCHEMA` and check that the http
    generator has an http(s) endpoint, independent of the filesystem;
    returns the full config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, value_s = item.split("=", 1)
        try:
            value = json.loads(value_s)
        except json.JSONDecodeError:
            value = value_s
        except ValueError:  # an integer of more digits than Python converts
            raise ConfigError(f"{dotted} has too many digits to read as a number") from None
        for name in reversed(dotted.split(".")):
            value = {name: value}
        raw = _layer(raw, value)
    raw = _resolve(SCHEMA, raw)
    url = raw["generator"]["endpoint_url"]
    if raw["generator"]["type"] == "http" and not url.lower().startswith(("http://", "https://")):
        raise ConfigError(f"generator.endpoint_url must be an http(s) URL, got {url!r}")
    return raw


def load_config(path, overrides: list[str] | None = None) -> PipelineConfig:
    """Read a config file, layer the overrides over it, and validate the result."""
    path = Path(path)
    try:
        raw_file = json.loads(parse_file("".join, path))
    except ParseError as exc:  # missing, a directory, unreadable, not UTF-8
        raise ConfigError(f"config file {exc}") from None
    except ValueError as exc:  # bad JSON, an oversized integer
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw_file, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return PipelineConfig(raw=validate(raw_file, overrides or ()), base_dir=path.parent)


def default_config() -> PipelineConfig:
    return PipelineConfig(raw=validate({}))


def dump_defaults() -> str:
    return json.dumps(DEFAULTS, indent=2, sort_keys=True)
