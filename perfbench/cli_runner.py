"""Run one `hardrank` CLI command in this fresh interpreter, traced.

Usage: python cli_runner.py SUMMARY_JSON COMMAND [ARGS...]

Times `import hardrank.cli`, installs the tracing wrappers, calls
`hardrank.cli.main(argv)` and writes the import time plus the trace
record (spans and aggregates) to SUMMARY_JSON. Exits with the command's
exit code.
"""

import json
import sys
import time

import tracing


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hardrank.cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = hardrank.cli.main(argv)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, **tracer.record(f"cli {argv[0]}")}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
