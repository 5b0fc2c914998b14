"""Start ``repro serve`` in this process, optionally with spans recorded.

Usage: ``python3 perfbench/serve_main.py SPANS_FILE|- SERVE_ARGS...``.
With a spans file the layer entry points are wrapped (see
``tracing.py``) before the server starts, and every span is written to
the file once the server has drained (SIGTERM).  With ``-`` this is
exactly ``python -m repro serve SERVE_ARGS...``.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = None
    if spans_path != "-":
        import tracing

        tracer = tracing.install()
        tracer.active = True
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    if tracer is not None:
        tracer.active = False
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
