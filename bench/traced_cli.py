"""Run the hdeeg command line with every layer traced.

Usage: python bench/traced_cli.py SPANS_JSON HDEEG_ARGS...

Imports ``hdeeg.cli`` inside a ``cli.import`` span, wraps the layers (see
``tracer.py``), runs ``hdeeg.cli.main`` on the remaining arguments, writes
the spans to SPANS_JSON and exits with the command's exit code.  The
package is found through PYTHONPATH, exactly as ``python -m hdeeg.cli``
finds it.
"""

import sys

import tracer as tracing


def main(argv):
    spans_path, *cli_args = argv
    tr = tracing.Tracer()
    with tr.span("cli", "cli.import"):
        import hdeeg.cli
    tracing.install(tr)
    code = hdeeg.cli.main(cli_args)
    tr.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
