"""Command-line surface: index, enrich, train, run, eval, config.

Exit codes: 0 success, 1 input/configuration error, 2 runtime failure.
All commands take ``--config`` (JSON) plus repeatable ``--set key=value``
overrides, and are deterministic given config and seed.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import dump_defaults, load_config
from .evaluation import render_report
from .pipeline import (
    RUN_METHODS,
    build_and_save_index,
    enrich_training_queries,
    evaluate_runs,
    produce_run,
    train_qpp_model,
    train_ranker,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardrank",
        description="Hardness-aware ranking: base + specialized rankers with QPP fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key, e.g. --set bm25.k1=1.2 (repeatable)",
        )
        return p

    p = with_config(sub.add_parser("index", help="build and persist the BM25 index"))
    p.add_argument("--force", action="store_true", help="rebuild over an existing index")

    with_config(sub.add_parser("enrich", help="rewrite hard training queries"))

    p = with_config(sub.add_parser("train", help="train a model"))
    p.add_argument("--which", required=True, choices=["br", "sr", "qpp"])

    p = with_config(sub.add_parser("run", help="produce a run file for the test queries"))
    p.add_argument("--method", required=True, choices=list(RUN_METHODS))

    p = with_config(sub.add_parser("eval", help="score run files against the test qrels"))
    p.add_argument("runs", nargs="+", help="run files; system name = file stem")
    p.add_argument("--baseline", required=True, help="system name used as baseline")

    p = sub.add_parser("config", help="configuration utilities")
    p.add_argument("--dump-defaults", action="store_true", help="print default config")

    return parser


def _cmd_index(args, config) -> int:
    index = build_and_save_index(config, force=args.force)
    print(f"indexed {index.n_docs} documents -> {config.path('index')}")
    return EXIT_OK


def _cmd_enrich(args, config) -> int:
    enriched, errors, n_hard = enrich_training_queries(config)
    fallbacks = sum(1 for e in enriched if e.fallback)
    summary = f"hard queries: {n_hard}; enriched: {len(enriched)} ({fallbacks} fallback)"
    if errors:
        print(f"{summary}; {len(errors)} failed, nothing written")
        for err in errors:
            print(f"enrichment failed: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{summary} -> {config.path('enriched_queries')}")
    return EXIT_OK


def _cmd_train(args, config) -> int:
    if args.which == "qpp":
        path = train_qpp_model(config)
    else:
        path = train_ranker(config, args.which)
    print(f"trained {args.which} -> {path}")
    return EXIT_OK


def _cmd_run(args, config) -> int:
    run_path, routing_log = produce_run(config, args.method)
    print(f"run written -> {run_path}")
    if routing_log is not None:
        print(f"routing log -> {routing_log}")
    return EXIT_OK


def _cmd_eval(args, config) -> int:
    report, text_path, jsonl_path = evaluate_runs(config, args.runs, args.baseline)
    print(render_report(report))
    print(f"report -> {text_path} and {jsonl_path}")
    return EXIT_OK


def _cmd_config(args) -> int:
    if args.dump_defaults:
        print(dump_defaults())
        return EXIT_OK
    print("nothing to do; try --dump-defaults", file=sys.stderr)
    return EXIT_INPUT


_COMMANDS = {
    "index": _cmd_index,
    "enrich": _cmd_enrich,
    "train": _cmd_train,
    "run": _cmd_run,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "config":
            return _cmd_config(args)
        return _COMMANDS[args.command](args, load_config(args.config, args.overrides))
    except ValueError as exc:  # ConfigError and ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit code
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
