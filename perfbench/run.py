"""hardrank benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload serve_deep_50x --seed 1 --seconds 5 --trace 0

Workloads (BENCHMARK.json says why each exists):

- cli_small: the README experiment (seed 7, in-sample) as 11 sequential
  `python -m hardrank.cli` commands. Its inputs do not depend on the seed,
  so its effectiveness guards reproduce the README table.
- pipeline_25x: 25 concatenated sub-corpora (5,000 docs), even topics
  train and odd topics test; the 11 stages through `hardrank.pipeline`.
- serve_deep_50x: 50 sub-corpora (10,000 docs); test queries extended so
  BM25 fills depth 100, served one at a time.

A run sets up at least SETUP_REPEATS times and for SETUP_MIN_S (`setup_s`
is the median), then repeats its pass until `--seconds` have passed, at
least once: the 11 stages, or every test query served once.
`pipeline_s` is the median pass time. A query's latency is the time until
its ranking is available, its median over passes: per query when served;
in the batch workloads, once per run method, from the start of the pass
to the end of that method's `run` command or stage. `rank_qps` counts
those rankings per second spent in serving or in the `run` operations
(median over passes). The garbage collector
runs before each timed phase, so no phase pays for the previous one's
garbage.

Every timed end-to-end metric (`setup_s`, `pipeline_s`, `rank_qps`,
`query_ms.*`) is measured in CPU time of this process and the commands it
waited for, scaled to a reference speed of the host by a probe that runs
throughout the run (clock.py): each set-up, pass and served query by the
speed measured around it, and a batch query's latency by its pass's. So
neither a spell in which the shared host runs something else nor one in
which it runs every CPU slower reads as a change of the program. The
details line keeps the run's mean scale factor and the unscaled CPU and
wall times. Trace spans, and so the per-layer times, are wall times, and
traced runs do not probe.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json.
With `--trace 1` the run sets up once and makes one untraced and one
traced pass: the per-layer metrics come from the traced set-up and pass,
the tracing overhead is traced minus untraced `pipeline_s` and `rank_qps`
in unscaled CPU time,
and the spans go to `.bench_work/trace-<workload>-seed<seed>.jsonl`.

Every output is checked (checks.py); a failed command, stage, query or
check makes `correct` false and the exit code 1. Without the source tree
the benchmark exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("cli_small", "pipeline_25x", "serve_deep_50x")
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
PIPELINE_SEEDS = 25

README_SETUP = "from hardrank.benchmark import write_benchmark; write_benchmark('bench', seed=7)"
README_CONFIG = {
    "paths": {
        "corpus": "corpus.jsonl",
        "train_queries": "queries.tsv", "train_qrels": "qrels.txt",
        "test_queries": "queries.tsv", "test_qrels": "qrels.txt",
    },
    "enrichment": {"use_judged_context": True},
}


class Ops:
    """Operations attempted and failed; a failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)

    def attempt(self, what: str, fn) -> tuple[bool, object]:
        """Run `fn` as one operation; returns whether it succeeded, and its value."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # noqa: BLE001 - counted, reported, exits nonzero
            self.fail(what, exc)
            return False, None


@dataclass
class Pass:
    timing: clock.Timing
    ranking: clock.Timing  # the part of the pass that ranked test queries
    latencies: dict[str, clock.Timing]  # per ranked query (and method): time until available

    def rank_qps(self) -> float:
        return len(self.latencies) / self.ranking.cpu_s


@dataclass
class Measured:
    setup: list[clock.Timing] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    effectiveness: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    records: list = field(default_factory=list)  # trace records, one per process

    def overhead(self) -> dict[str, float]:
        """Traced (second) minus untraced (first) pass."""
        untraced, traced = self.passes
        return {
            "pipeline_s": traced.timing.cpu_s - untraced.timing.cpu_s,
            "rank_qps": traced.rank_qps() - untraced.rank_qps(),
        }


def timed(fn) -> tuple[clock.Timing, object]:
    gc.collect()
    started = clock.start()
    value = fn()
    return clock.stop(started), value


def set_up_again(setup: list[clock.Timing], trace: bool) -> bool:
    """Untraced runs set up SETUP_REPEATS times and for SETUP_MIN_S; traced runs once."""
    if trace:
        return not setup
    return len(setup) < SETUP_REPEATS or sum(t.cpu_s for t in setup) < SETUP_MIN_S


def more_passes(measured: Measured, trace: bool, deadline: float) -> bool:
    """Traced runs: one untraced and one traced pass. Untraced runs: passes
    until `--seconds` have passed, at least one."""
    if trace:
        return len(measured.passes) < 2
    return not measured.passes or time.perf_counter() < deadline


# -- batch workloads ----------------------------------------------------------


def batch_pass(timing: clock.Timing, stage_s: dict[str, float], test_ids: list[str]) -> Pass:
    """A batch ranks a test query by a method when that method's `run` ends:
    its latency is the time from the start of the pass to that point. Its
    CPU seconds are scaled by the speed over the whole pass."""
    latencies = {}
    elapsed = 0.0
    for stage, stage_seconds in stage_s.items():
        elapsed += stage_seconds
        if stage.startswith("run_"):
            latency = replace(timing, cpu_s=elapsed)
            latencies.update({f"{stage}:{qid}": latency for qid in test_ids})
    ranking_s = sum(s for stage, s in stage_s.items() if stage.startswith("run_"))
    return Pass(timing, replace(timing, cpu_s=ranking_s), latencies)


def run_offline(args, work: Path, ops: Ops, trace: bool) -> Measured:
    """Set-up, then passes of the 11 stages, each in a fresh directory."""
    import checks
    import offline
    import tracing
    import workloads

    via_cli = args.workload == "cli_small"
    env = offline.child_env(SRC)
    measured = Measured()
    inputs = workloads.readme_inputs() if via_cli else None

    def set_up(directory: Path) -> Path:
        nonlocal inputs
        if via_cli:
            directory.mkdir(parents=True)
            subprocess.run([sys.executable, "-c", README_SETUP], cwd=directory, env=env,
                           check=True, capture_output=True, timeout=120)
            directory = directory / "bench"
            (directory / "config.json").write_text(json.dumps(README_CONFIG, indent=1) + "\n")
            return directory
        inputs = workloads.scaled_inputs(args.seed, PIPELINE_SEEDS)
        workloads.write_inputs(inputs, directory)
        return directory

    while set_up_again(measured.setup, trace):
        directory = work / f"inputs{len(measured.setup)}"
        timing, (ok, inputs_dir) = timed(lambda: ops.attempt("setup", lambda: set_up(directory)))
        if not ok:
            return measured
        measured.setup.append(timing)
    measured.details["workload"] = inputs.properties()
    test_ids = [q.query_id for q in inputs.test_queries]
    judgments = checks.judgments_by_query(inputs.test_qrels)

    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + args.seconds
    digests = None
    while more_passes(measured, trace, deadline):
        k = len(measured.passes)
        pass_dir = work / f"pass{k}"
        traced = trace and k == 1
        uninstall = tracing.install(tracer) if traced and not via_cli else None
        records = measured.records if traced and via_cli else None
        timing, stage_s = timed(
            lambda: offline.run_pass(inputs_dir, pass_dir, via_cli, SRC, ops, records))
        if uninstall:
            uninstall()
        if ops.failed:
            return measured
        measured.passes.append(batch_pass(timing, stage_s, test_ids))
        measured.details.setdefault("stage_s", []).append(stage_s)

        def check():
            runs, report = checks.read_outputs(pass_dir / "work", test_ids)
            checks.check_report_agrees(report, runs, judgments, test_ids)
            sha256 = checks.file_digests(pass_dir / "work")
            checks.require(digests in (None, sha256), f"pass {k} output differs from pass 0")
            return runs, sha256

        ok, checked = ops.attempt(f"check pass {k}", check)
        if not ok:
            return measured
        if digests is None:
            runs, digests = checked
            measured.details["sha256"] = digests
            measured.effectiveness = checks.effectiveness(
                runs, judgments, test_ids, inputs.hard_query_ids)
        shutil.rmtree(pass_dir)
    if trace:
        measured.records.append(tracer.record("benchmark"))
    return measured


# -- serving workload ---------------------------------------------------------


def run_serving(args, work: Path, ops: Ops, trace: bool) -> Measured:
    """Set-up through library calls, then passes over the test queries."""
    import checks
    import serve
    import tracing
    import workloads
    from hardrank import lexical_retrieval

    measured = Measured()
    inputs = workloads.scaled_inputs(args.seed, serve.N_SEEDS, extend_test=True)
    test_ids = [q.query_id for q in inputs.test_queries]
    measured.details["workload"] = inputs.properties()
    config = serve.serve_config()
    tracer = tracing.Tracer() if trace else None

    def set_up():
        if not trace:
            return serve.set_up(inputs, config)
        with tracer.span("setup", context="setup"):
            return serve.set_up(inputs, config)

    uninstall = tracing.install(tracer) if trace else None
    while set_up_again(measured.setup, trace):
        timing, (ok, served) = timed(lambda: ops.attempt("setup", set_up))
        if not ok:
            return measured
        measured.setup.append(timing)
    if trace:
        # Index size is a workload property; serving itself does no I/O.
        index_path = work / "index.json"
        with tracer.span("index_size", context="setup"):
            lexical_retrieval.save_index(served.index, index_path)
            ops.attempt("index round trip", lambda: checks.require(
                lexical_retrieval.load_index(index_path).postings == served.index.postings,
                "saved index does not load back equal"))
        uninstall()

    first = None
    deadline = time.perf_counter() + args.seconds
    while more_passes(measured, trace, deadline):
        traced = trace and first is not None
        uninstall = tracing.install(tracer) if traced else None
        timing, (answers, latencies) = timed(lambda: serve.serve_pass(
            served, inputs.test_queries, config, ops, tracer if traced else None))
        if uninstall:
            uninstall()
        if ops.failed:
            return measured
        measured.passes.append(Pass(timing, timing, latencies))
        if first is None:
            first = answers
        elif not ops.attempt("repeat pass", lambda: checks.require(
                answers == first, "a repeated pass answered differently"))[0]:
            return measured

    def check_and_score():
        tau = serve.train_median_tau(served, inputs, config)
        uninstall = tracing.install(tracer) if trace else None
        try:
            runs = serve.assemble_runs(first, inputs.test_queries, tau, config)
        finally:
            if uninstall:
                uninstall()
        checks.check_runs(runs, test_ids)
        for qid, answer in first.items():
            checks.require(
                {r.doc_id for r in answer.candidates} == {r.doc_id for r in answer.br},
                f"query {qid}: reranked documents differ from the candidates",
            )
        measured.details["sha256"] = checks.run_digests(runs)
        measured.details["candidates_median"] = statistics.median(
            len(a.candidates) for a in first.values())
        measured.effectiveness = checks.effectiveness(
            runs, checks.judgments_by_query(inputs.test_qrels), test_ids, inputs.hard_query_ids)

    ops.attempt("check runs", check_and_score)
    if trace:
        measured.records.append(tracer.record("benchmark"))
    return measured


# -- result -------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(measured: Measured, speed: clock.SpeedProbe) -> dict[str, float]:
    """Medians over passes of times scaled by `speed` (clock.py); a query's
    latency is its median over passes."""
    scaled = speed.scaled
    passes = measured.passes
    latencies_ms = [
        statistics.median(scaled(p.latencies[unit]) for p in passes) * 1000.0
        for unit in passes[0].latencies
    ]
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return {
        "setup_s": statistics.median(map(scaled, measured.setup)),
        "pipeline_s": statistics.median(scaled(p.timing) for p in passes),
        "rank_qps": len(latencies_ms) / statistics.median(scaled(p.ranking) for p in passes),
        "query_ms.p50": cuts[49],
        "query_ms.p99": cuts[98],
        "peak_rss_mb": peak_rss_mb(),
        **measured.effectiveness,
    }


def per_layer(measured: Measured, import_s: float) -> dict[str, float]:
    import tracing

    summary = tracing.merge([r["summary"] for r in measured.records])
    child_imports = summary["observed"].get("import_s")
    if child_imports:
        import_s = statistics.median(child_imports)
    return tracing.layer_metrics(summary, import_s, measured.overhead())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hardrank" / "__init__.py").is_file():
        print(f"error: no hardrank source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    # The benchmark's own modules import hardrank, so they are imported inside
    # the functions that use them, after this first, timed import.
    start = time.perf_counter()
    import hardrank.cli  # noqa: F401 - timed as cli.import_s

    import_s = time.perf_counter() - start
    if not Path(hardrank.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hardrank from {hardrank.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    trace = args.trace == 1
    ops = Ops()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    speed = clock.SpeedProbe()
    try:
        run = run_serving if args.workload == "serve_deep_50x" else run_offline
        if trace:
            measured = run(args, work, ops, trace)
        else:
            with speed:
                measured = run(args, work, ops, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = {}
    if ops.failed == 0:
        values = per_layer(measured, import_s) if trace else end_to_end(measured, speed)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise SystemExit(f"error: benchmark computed no value for {missing}")
    if trace:
        trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            for record in measured.records:
                fh.write(json.dumps(record) + "\n")
        measured.details["trace_file"] = str(trace_path.relative_to(ROOT))

    measured.details.update(
        workload_name=args.workload, seed=args.seed, trace=args.trace,
        setup_s=[t.cpu_s for t in measured.setup],
        pass_s=[p.timing.cpu_s for p in measured.passes],
        wall_pass_s=[p.timing.end - p.timing.start for p in measured.passes],
        speed_factor=speed.factor() if speed.samples else None, speed_samples=len(speed.samples),
        latency_samples=len(measured.passes[0].latencies) if measured.passes else 0,
        failed_share=ops.failed / max(ops.attempted, 1), errors=ops.errors[:20],
    )
    print(json.dumps(measured.details, sort_keys=True))
    result = {
        "correct": ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
