"""Run the ternalg CLI in the test process.

`invoke(*args)` calls `ternalg.cli.main` with the arguments as strings and
returns the exit code, what the command wrote to stdout and stderr, and any
exception other than `SystemExit` that escaped it.
"""

import contextlib
import io
from typing import NamedTuple, Optional

from ternalg.cli import main


class Result(NamedTuple):
    exit_code: Optional[int]
    stdout: str
    stderr: str
    exception: Optional[Exception]

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(*args) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code, exception = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # returned for the test to assert on
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
