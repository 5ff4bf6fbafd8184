"""Run one gmdkit CLI command with tracing wrappers installed.

    python3 perfbench/traced_op.py SPAN_FILE OP_ID -- <gmdkit cli args>

Imports gmdkit from the checkout's ``src``, wraps its layers (see ``tracing.TARGETS``),
calls ``gmdkit.cli.main`` with the given arguments, writes the spans to
SPAN_FILE once the command returns, and exits with the command's status.
"""

import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    span_file, op_id = argv[0], int(argv[1])
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    import gmdkit.cli
    import tracing

    tracer = tracing.Tracer(op_id)
    tracer.install()
    try:
        status = gmdkit.cli.main(argv[3:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(span_file)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
