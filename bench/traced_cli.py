"""Run one ``svdshape`` command in this process with layer tracing on.

    python3 bench/traced_cli.py TRACE.json -- fit data.txt --sigma2 50 ...

Imports the CLI, wraps the targets in :data:`tracing.TARGETS`, runs the
command, writes the spans to TRACE.json and exits with the command's code.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE.json -- <svdshape args>")
    import svdshape.cli

    tracer = Tracer()
    absent = install(tracer)
    code = 0
    try:
        svdshape.cli.main.main(args=cli_args, prog_name="svdshape",
                               standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    tracer.dump(trace_path, absent, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
