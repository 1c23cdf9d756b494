"""Run ``biopoly.cli.main`` with span recording, for traced CLI requests.

Usage: python perfbench/cli_shim.py SPANS_JSON REQUEST_ID CLI_ARGS...

Installs the span wrappers from ``tracing`` in this fresh process, runs
the command line exactly as ``python -m biopoly.cli CLI_ARGS...`` would,
and writes the recorded spans to SPANS_JSON even when the command fails.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> None:
    spans_path, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import biopoly.cli
    recorder = tracing.Recorder()
    recorder.request = request
    tracing.install(recorder)
    try:
        code = biopoly.cli.main(argv)
    finally:
        recorder.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
