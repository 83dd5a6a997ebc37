"""Traced stand-in for ``python -m bzeta.cli``, used by the cli workload's
traced pass.

Usage: cli_child.py SPAN_PATH ARGS...

Imports bzeta.cli (from PYTHONPATH), wraps the public functions of every
layer, runs the command and writes the spans to SPAN_PATH.  The exit code
is the command's.
"""

import sys

from tracer import Tracer


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    import bzeta.cli

    tracer = Tracer()
    tracer.install()
    try:
        return bzeta.cli.run(argv)
    finally:
        tracer.uninstall()
        tracer.dump(span_path)


if __name__ == "__main__":
    sys.exit(main())
