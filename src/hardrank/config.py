"""Pipeline configuration: one JSON file drives every command.

Defaults below are the documented toolkit choices (BM25 k1=0.9/b=0.4,
run depth 100, hardness thresholds, inverted QPP orientation, train-median
routing threshold). Any key can be overridden by the file and any file key
by a ``--set section.key=value`` flag; unknown keys are rejected so typos
fail loudly instead of silently using a default.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .enrichment import HardnessRule
from .lexical_retrieval import Bm25Params

DEFAULTS: dict[str, Any] = {
    "seed": 13,
    "run_depth": 100,
    "paths": {
        "corpus": "corpus.jsonl",
        "train_queries": "queries.tsv",
        "train_qrels": "qrels.txt",
        "test_queries": "queries.tsv",
        "test_qrels": "qrels.txt",
        "index": "work/index.json",
        "enriched_queries": "work/enriched.tsv",
        "models_dir": "work/models",
        "runs_dir": "work/runs",
        "reports_dir": "work/reports",
    },
    "bm25": {"k1": 0.9, "b": 0.4},
    "hardness": {
        "max_token_count": 5,
        "acronym_pattern": True,
        "min_context_terms": 2,
        "lexicon_file": None,
    },
    "generator": {
        "type": "stub",  # "stub" or "http"
        "endpoint_url": "",
        "auth_token_env": "HARDRANK_GENERATOR_TOKEN",
        "max_retries": 3,
        "max_in_flight": 4,
        "stub_context_terms": 6,
    },
    "enrichment": {"use_judged_context": False, "passage_window": 120},
    "ranker": {
        "epochs": 500,
        "learning_rate": 0.1,
        "negatives_per_positive": 4,
        "label_threshold": 1,
    },
    "qpp": {"epochs": 500, "learning_rate": 0.05, "k": 10, "orientation": "hardness"},
    "fusion": {
        "normalize": "per_query_min_max",
        "routing_threshold": "train_median",
    },
    "metrics": {
        "ndcg_k": 10,
        "rr_cutoff": None,
        "gain": "exp",
        "include_no_positive": False,
    },
}


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

    def path(self, name: str) -> Path:
        value = self.raw["paths"][name]
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path

    def bm25_params(self) -> Bm25Params:
        return Bm25Params(**self.raw["bm25"])

    def hardness_rule(self) -> HardnessRule:
        section = self.raw["hardness"]
        lexicon = None
        if section.get("lexicon_file"):
            lexicon_path = Path(section["lexicon_file"])
            if not lexicon_path.is_absolute():
                lexicon_path = self.base_dir / lexicon_path
            lexicon = frozenset(lexicon_path.read_text(encoding="utf-8").split())
        return HardnessRule(
            max_token_count=section["max_token_count"],
            acronym_pattern=section["acronym_pattern"],
            min_context_terms=section["min_context_terms"],
            lexicon=lexicon,
        )

    def section(self, name: str) -> dict[str, Any]:
        return self.raw[name]


def _merge(base: dict, override: dict, trail: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{trail}.{key}" if trail else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"config key {where!r} must be an object")
        if isinstance(base[key], dict):
            merged[key] = _merge(base[key], value, where)
        else:
            merged[key] = value
    return merged


def _check_range(raw: dict, *keys: str, lo=None, hi=None, kind=None) -> None:
    """Type and range check of the value at ``raw[keys[0]][keys[1]]...``.

    A bool is never an integer or a number here, although Python counts it
    as an int, and NaN or an infinity is never a number.
    """
    value = raw
    for key in keys:
        value = value[key]
    where = ".".join(keys)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if kind is float and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{where} must be <= {hi}, got {value}")


def validate(raw: dict[str, Any]) -> None:
    """Range/enum checks independent of the filesystem."""
    _check_range(raw, "seed", kind=int)
    _check_range(raw, "bm25", "k1", lo=1e-9, kind=float)
    _check_range(raw, "bm25", "b", lo=0.0, hi=1.0, kind=float)
    _check_range(raw, "run_depth", lo=1, kind=int)
    _check_range(raw, "hardness", "max_token_count", lo=1, kind=int)
    _check_range(raw, "hardness", "min_context_terms", lo=0, kind=int)
    if raw["generator"]["type"] not in ("stub", "http"):
        raise ConfigError("generator.type must be 'stub' or 'http'")
    if raw["generator"]["type"] == "http" and not raw["generator"]["endpoint_url"]:
        raise ConfigError("generator.endpoint_url required for the http generator")
    _check_range(raw, "enrichment", "passage_window", lo=1, kind=int)
    for section in ("ranker", "qpp"):
        _check_range(raw, section, "epochs", lo=1, kind=int)
        _check_range(raw, section, "learning_rate", lo=1e-12, kind=float)
    _check_range(raw, "ranker", "negatives_per_positive", lo=0, kind=int)
    _check_range(raw, "ranker", "label_threshold", lo=1, kind=int)
    _check_range(raw, "qpp", "k", lo=1, kind=int)
    if raw["qpp"]["orientation"] not in ("hardness", "effectiveness"):
        raise ConfigError("qpp.orientation must be 'hardness' or 'effectiveness'")
    if raw["fusion"]["normalize"] not in ("per_query_min_max", "none"):
        raise ConfigError("fusion.normalize must be 'per_query_min_max' or 'none'")
    threshold = raw["fusion"]["routing_threshold"]
    if isinstance(threshold, str):
        if threshold != "train_median":
            raise ConfigError("fusion.routing_threshold must be a number or 'train_median'")
    else:
        _check_range(raw, "fusion", "routing_threshold", lo=0.0, hi=1.0, kind=float)
    _check_range(raw, "metrics", "ndcg_k", lo=1, kind=int)
    if raw["metrics"]["rr_cutoff"] is not None:
        _check_range(raw, "metrics", "rr_cutoff", lo=1, kind=int)
    if raw["metrics"]["gain"] not in ("exp", "linear"):
        raise ConfigError("metrics.gain must be 'exp' or 'linear'")


def apply_overrides(raw: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply ``section.key=value`` strings; values parse as JSON, else string."""
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, value_s = item.split("=", 1)
        keys = dotted.split(".")
        try:
            value = json.loads(value_s)
        except json.JSONDecodeError:
            value = value_s
        node = out
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                raise ConfigError(f"unknown config section {dotted!r}")
            node = node[key]
        if keys[-1] not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node[keys[-1]] = value
    return out


def load_config(path, overrides: list[str] | None = None) -> PipelineConfig:
    """Read, merge over defaults, override, and validate a config file."""
    path = Path(path)
    try:
        raw_file = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(raw_file, dict):
        raise ConfigError("config root must be a JSON object")
    raw = _merge(DEFAULTS, raw_file)
    if overrides:
        raw = apply_overrides(raw, overrides)
    validate(raw)
    return PipelineConfig(raw=raw, base_dir=path.parent)


def default_config() -> PipelineConfig:
    return PipelineConfig(raw=copy.deepcopy(DEFAULTS))


def dump_defaults() -> str:
    return json.dumps(DEFAULTS, indent=2, sort_keys=True)
