"""Campaign-server launcher for the traced served-overlap run.

Installs the span wrappers, then runs ``python -m repro.experiments
serve ARGS`` in this process.  Spans of the server go to
``--trace-dir/spans-server.json`` when it stops; forked partition workers
write ``spans-<pid>.json`` beside it when they exit.

    python3 perfbench/serve_launch.py --trace-dir DIR serve --port 0 ...
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-dir":
        print(__doc__, file=sys.stderr)
        return 2
    trace_dir, serve_args = sys.argv[2], sys.argv[3:]
    os.makedirs(trace_dir, exist_ok=True)
    from repro.experiments.__main__ import main as cli_main

    tracer = tracing.install(tracing.Tracer())
    tracing.dump_forked_children(tracer, trace_dir)
    try:
        return cli_main(serve_args)
    finally:
        tracer.dump(os.path.join(trace_dir, "spans-server.json"))


if __name__ == "__main__":
    sys.exit(main())
