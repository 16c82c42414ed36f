"""Budget probe: the real CLI with its search timed from inside the process.

``probe_cli.py infer ARGS...`` runs ``repro.cli.main(["infer", ARGS...])``
after putting a stopwatch around the public ``repro.search.search.hill_climb``
(``_cmd_infer`` looks it up there when it runs), and prints
``{"search_s": ...}`` as the last line of stdout.  The traced run times this
process from spawn to exit, so the search seconds and the wall they are a
share of come from one and the same run; a search timed in another process
differs from the CLI's by whatever the host did in between.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    import repro.cli
    import repro.search.search as search

    inner = search.hill_climb
    seconds: list[float] = []

    def timed_hill_climb(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)

    search.hill_climb = timed_hill_climb
    code = repro.cli.main(argv)
    print(json.dumps({"search_s": sum(seconds), "searches": len(seconds)}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
