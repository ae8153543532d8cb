"""One benchmark request in a fresh interpreter.

    python3 child.py SRC_DIR TRACE REQUEST_ID -- CLI_ARG...

Imports ``warpsymp.cli`` from SRC_DIR, runs ``warpsymp.cli.main`` on the CLI
arguments, and prints one JSON line after the command's own output: its
exit code, set-up seconds (script start until the import completes), peak
RSS, and with TRACE=1 the per-layer totals and kept spans.  Exits 97 when
the package cannot be imported from SRC_DIR.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

SETUP_FAILED = 97


def main():
    separator = sys.argv.index("--")
    src, trace, request_id = sys.argv[1:separator]
    cli_args = sys.argv[separator + 1 :]
    sys.path.insert(0, src)
    try:
        import warpsymp.cli
    except ImportError as err:
        print(f"cannot import warpsymp from {src}: {err}", file=sys.stderr)
        return SETUP_FAILED
    setup_s = time.perf_counter() - STARTED
    if not os.path.realpath(warpsymp.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"warpsymp was imported from {warpsymp.cli.__file__}, not {src}", file=sys.stderr)
        return SETUP_FAILED

    tracer = absent = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer(request_id)
        absent, expression_type = tracing.install(tracer)
    exit_code = warpsymp.cli.main(cli_args)
    sys.stdout.flush()
    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        counts = dict(tracer.counts)
        if expression_type is not None:
            counts.update(tracing.node_counts(list(tracer.roots.values()), expression_type))
        result["trace"] = {
            "absent": absent,
            "calls": dict(tracer.calls),
            "total_s": dict(tracer.total_s),
            "self_s": dict(tracer.self_s),
            "counts": counts,
            "spans": tracer.spans,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
