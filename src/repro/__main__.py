"""``python -m repro`` entry point.

A typed program error (:class:`~repro.errors.ReproError`) ends the run
with one ``repro: error: <type>: <message>`` line on stderr and exit
status 1; anything else is a bug and keeps its traceback.  In-process
callers of :func:`repro.cli.main` still see the exception.
"""

import sys

from repro.cli import main
from repro.errors import ReproError


def run() -> int:
    try:
        return main()
    except ReproError as exc:
        print(f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(run())
