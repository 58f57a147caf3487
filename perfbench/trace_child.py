"""Run one CLI invocation in this fresh interpreter with its spans recorded.

    python -X importtime perfbench/trace_child.py SPANS.json|- SUBCOMMAND [ARGS...]

Imports ``combscatter.cli``, wraps the traced functions, calls
``cli.main(argv)``, writes the spans to SPANS.json and exits with main's
return code.  With ``-`` in place of SPANS.json nothing is wrapped or
written: that is the untraced side of the overhead figure, run through the
same entry script.  Only ``sys`` and ``time`` are loaded before the
package, so ``-X importtime`` sees the package's whole import cost.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import combscatter.cli

    if spans_path == "-":
        return combscatter.cli.main(argv)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        return combscatter.cli.main(argv)
    finally:
        recorder.dump(spans_path, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
