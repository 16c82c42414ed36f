"""Set-up probe: what ``repro infer`` does before its search starts.

Run in a fresh interpreter by ``run.py``, which times it from spawn to exit;
that wall time is the ``setup_s`` metric.  The steps mirror ``_cmd_infer``:
import the CLI and the modules it pulls in lazily, read the alignment, the
partition file and the start tree, and build the likelihood.  Only public
functions are called, so the probe keeps working when the CLI is split up.

The per-step times are printed as one JSON object for the traced run.  With
``--compress`` (traced run only, its wall time is not used) the probe also
times the pattern compression ``build`` performs, on its own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    time_compress = "--compress" in argv
    argv = [a for a in argv if a != "--compress"]
    alignment_path, tree_path = argv[0], argv[1]
    partitions_path = argv[2] if len(argv) > 2 else None
    steps: dict[str, float] = {}
    t = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal t
        now = time.perf_counter()
        steps[name] = now - t
        t = now

    import repro.cli  # noqa: F401
    import repro.likelihood.backend  # noqa: F401
    import repro.obs.context  # noqa: F401
    import repro.search.checkpoint  # noqa: F401
    import repro.search.search  # noqa: F401
    import repro.tree.random_trees  # noqa: F401
    from repro.likelihood.partitioned import PartitionedLikelihood
    from repro.seq.io_fasta import read_fasta
    from repro.seq.partitions import read_partition_file
    from repro.tree.newick import parse_newick
    lap("import_s")

    alignment = read_fasta(Path(alignment_path))
    lap("parse_s")
    scheme = read_partition_file(partitions_path) if partitions_path else None
    lap("partitions_s")
    tree = parse_newick(Path(tree_path).read_text())
    lap("tree_parse_s")
    lik = PartitionedLikelihood.build(alignment, tree, scheme=scheme)
    lap("build_s")

    if time_compress:
        from repro.seq.partitions import PartitionScheme

        for partition in scheme or PartitionScheme.single(alignment.n_sites):
            alignment.slice_sites(partition.sites).compress()
        lap("compress_s")
    steps["patterns"] = sum(part.n_patterns for part in lik.parts)
    steps["partitions"] = lik.n_partitions
    print(json.dumps(steps))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
