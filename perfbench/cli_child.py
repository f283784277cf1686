"""Run one spinrelay CLI command in a fresh interpreter, optionally traced.

    python3 perfbench/cli_child.py [--trace-out FILE] -- <spinrelay arguments>

Without --trace-out this is `python3 -m spinrelay <arguments>` on the
checkout's `src`. With it, the tracer wraps the package for the whole
command and writes its summary and spans to FILE as JSON.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main():
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from spinrelay import cli

    if trace_out is None:
        return cli.main(argv)
    sys.path.insert(0, HERE)
    from tracer import Tracer

    tracer = Tracer()
    # look cli.main up at call time, after the tracer has patched it
    code = tracer.run_op(0, lambda: cli.main(argv))
    with open(trace_out, "w") as fh:
        json.dump({"summary": tracer.summary(),
                   "spans": tracer.span_records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
