"""Run one fuzzbound CLI command with spans, for the traced cli-session run.

Usage: python3 cli_child.py SPANS_FILE ARG...

Runs ``fuzzbound.cli.run(ARG...)`` with a span around it and around each
call it makes into another module's public functions, writes the spans to
SPANS_FILE and exits with the command's exit code.
"""

import sys

import spans


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from fuzzbound import cli

    tracer = spans.Tracer()
    with tracer.patched(spans.CALLS_FROM_CLI + spans.CALLS_FROM_DBSIM):
        code = tracer.wrap(cli.run, "cli.run")(argv)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
