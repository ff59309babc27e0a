"""Run ``svdshape.cli.main`` in this process and capture what it writes.

Imports only the stdlib and ``svdshape.cli``, so a fresh interpreter can use
it to see which modules a command loads.
"""

import contextlib
import io
from typing import NamedTuple

from svdshape.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None


def invoke(args) -> Result:
    """``main(args)``: a ``SystemExit`` gives its code, with the exception kept
    when the code is not 0; any other exception gives exit 1 and itself."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            exception = exc if code != 0 else None
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
