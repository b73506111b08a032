"""`cli_small` and `pipeline_25x`: the 11-stage offline pipeline.

Both run index -> enrich -> train x3 -> run x5 -> eval in a fresh copy of
the input directory per pass. `cli_small` runs each stage as a
`python -m hardrank.cli` command (traced: through `cli_runner.py`);
`pipeline_25x` calls the `hardrank.pipeline` functions in this process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from hardrank import config as config_mod, pipeline

import checks
import tracing
from clock import cpu_s

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 120
RUN_FILES = [f"work/runs/{name}.txt" for name in checks.SYSTEMS]


class StageFailed(Exception):
    pass


def cli_argv(stage: str) -> list[str]:
    """The README command for a stage."""
    config = ["--config", "config.json"]
    if stage == "index":
        return ["index", *config]
    if stage == "enrich":
        return ["enrich", *config]
    if stage.startswith("train_"):
        return ["train", *config, "--which", stage[len("train_"):]]
    if stage.startswith("run_"):
        return ["run", *config, "--method", stage[len("run_"):]]
    return ["eval", *RUN_FILES, "--baseline", "br", *config]


def child_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter: the absolute source tree first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_command(argv: list[str], cwd: Path, env) -> float:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise StageFailed(f"{' '.join(argv[-4:])}: timed out") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        raise StageFailed(f"{' '.join(argv[-4:])}: exit {proc.returncode} {tail}")
    return elapsed


def cli_stage(stage: str, pass_dir: Path, env, records: list | None) -> float:
    """One CLI command; traced runs go through cli_runner and collect its record."""
    if records is None:
        return run_command([sys.executable, "-m", "hardrank.cli", *cli_argv(stage)], pass_dir, env)
    summary_path = pass_dir / f"trace-{stage}.json"
    runner = [sys.executable, str(HERE / "cli_runner.py"), str(summary_path)]
    elapsed = run_command(runner + cli_argv(stage), pass_dir, env)
    record = json.loads(summary_path.read_text(encoding="utf-8"))
    record["summary"]["incl_s"][f"cli.command.{stage}"] = elapsed
    record["summary"]["observed"]["import_s"] = [record.pop("import_s")]
    records.append(record)
    return elapsed


def library_stage(stage: str, config) -> None:
    """One stage through `hardrank.pipeline`, as the matching CLI command calls it."""
    if stage == "index":
        pipeline.build_and_save_index(config)
    elif stage == "enrich":
        _, errors, _ = pipeline.enrich_training_queries(config)
        if errors:
            raise StageFailed(f"enrich: {len(errors)} queries failed")
    elif stage == "train_qpp":
        pipeline.train_qpp_model(config)
    elif stage.startswith("train_"):
        pipeline.train_ranker(config, stage[len("train_"):])
    elif stage.startswith("run_"):
        pipeline.produce_run(config, stage[len("run_"):])
    else:
        pipeline.evaluate_runs(config, [config.base_dir / p for p in RUN_FILES], "br")


def run_pass(inputs_dir: Path, pass_dir: Path, via_cli: bool, src: Path, ops,
             records: list | None = None) -> dict[str, float]:
    """All 11 stages in a fresh copy of the inputs; returns CPU seconds per stage.

    Stops at the first failed stage (later stages would read its artifacts).
    """
    shutil.copytree(inputs_dir, pass_dir)
    env = child_env(src)
    config = None if via_cli else config_mod.load_config(pass_dir / "config.json")
    seconds = {}
    for stage in tracing.STAGES:
        start = cpu_s()
        if via_cli:
            ok, _ = ops.attempt(stage, lambda: cli_stage(stage, pass_dir, env, records))
        else:
            ok, _ = ops.attempt(stage, lambda: library_stage(stage, config))
        if not ok:
            return seconds
        seconds[stage] = cpu_s() - start
    return seconds
