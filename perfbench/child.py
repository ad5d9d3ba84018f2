"""One benchmark op: a fresh process that imports txaccel.cli and runs one
command through `txaccel.cli.main`, as the `txaccel` script does.

    python3 perfbench/child.py RESULT_JSON [--spans SPANS_CSV] -- [CLI_ARGS...]

Writes RESULT_JSON with the wall and CPU time to import txaccel.cli, the
wall time of the `cli.main(CLI_ARGS)` call, its exit code or exception, and
this process's peak RSS.  Without CLI_ARGS it only imports.  With --spans the
layers are traced (see spans.py): the spans go to SPANS_CSV and their
summary into the result.
"""

import json
import resource
import sys
import time
import traceback


def main(argv):
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    result_path = options[0]
    spans_path = options[options.index("--spans") + 1] if "--spans" in options else None

    started, started_cpu = time.perf_counter(), time.process_time()
    import txaccel.cli as cli
    import_s = time.perf_counter() - started
    import_cpu_s = time.process_time() - started_cpu

    run = cli.main
    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        run = tracer.wrap(spans.ROOT, cli.main)

    result = {"import_s": import_s, "import_cpu_s": import_cpu_s,
              "exit_code": 0, "error": None, "main_s": 0.0}
    if cli_args:
        started = time.perf_counter()
        try:
            result["exit_code"] = run(cli_args)
        except SystemExit as exc:  # argparse rejects its arguments this way
            result["exit_code"] = exc.code
        except Exception:  # the op fails; the benchmark reports why
            result["error"] = traceback.format_exc()
        result["main_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.write(spans_path)
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
