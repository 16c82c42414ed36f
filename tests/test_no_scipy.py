"""The program runs without SciPy, and without what a run did not enable.

Every rank of the decentralized scheme is a complete copy of the program,
so what a process imports is paid once per rank.  ``repro`` computes the
Γ rates with its own incomplete-gamma routines; SciPy is a test-side
oracle only (``tests/test_rates.py``, ``tests/test_substitution.py``).
An optional subsystem (the replica sanitizer, the live monitor) is
imported only in the branch that enables it.  These tests run fresh
interpreters in which importing the blocked modules *fails*.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import partitioned_workload
from repro.seq.io_fasta import write_fasta
from repro.seq.partitions import write_partition_file
from repro.tree.distances import rf_distance
from repro.tree.newick import parse_newick, write_newick

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``None`` in ``sys.modules`` makes any later ``import scipy[.x]`` raise
#: ImportError, in this process and in every rank forked from it
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"

#: What a plain ``infer`` never needs: ``hashlib`` (OpenSSL's libcrypto,
#: for ``--sanitize`` only), ``numpy.ma`` (what a flag-less ``np.unique``
#: imports), the parent-side monitor and the sanitizer
UNUSED = ("hashlib", "_hashlib", "numpy.ma", "repro.obs.monitor",
          "repro.par.sanitize")
BLOCK_UNUSED = "import sys\n" + "".join(
    f"sys.modules[{name!r}] = None\n" for name in UNUSED)

ENGINES = {
    "sequential": ["--engine", "sequential"],
    "decentralized": ["--engine", "decentralized", "--ranks", "2", "--dist", "mps"],
    "forkjoin": ["--engine", "forkjoin", "--ranks", "2", "--dist", "mps"],
}


def run_python(code: str, tmp_path: Path) -> str:
    """stdout + stderr of ``python -c code``, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, cwd=tmp_path,
        env={"PYTHONPATH": str(SRC), "REPRO_RUNS_DIR": str(tmp_path / "runs")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def genes(tmp_path_factory) -> tuple[Path, Path, Path]:
    """A 4-gene alignment, its ``-q`` file and a start tree."""
    root = tmp_path_factory.mktemp("genes4")
    workload = partitioned_workload(4, n_taxa=8, sites_per_partition=60, seed=21)
    write_fasta(workload.alignment, root / "genes.fasta")
    write_partition_file(workload.scheme, root / "genes.partitions")
    (root / "start.nwk").write_text(write_newick(workload.tree) + "\n")
    return root / "genes.fasta", root / "genes.partitions", root / "start.nwk"


def test_infer_path_imports_no_scipy(tmp_path):
    """The import list of ``benchmarks/e2e/probe_setup.py``."""
    out = run_python(BLOCK_SCIPY + "\n".join([
        "import repro.cli",
        "import repro.likelihood.backend",
        "import repro.obs.context",
        "import repro.search.checkpoint",
        "import repro.search.search",
        "import repro.tree.random_trees",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ]), tmp_path)
    assert out.strip() == "['scipy']"  # the planted None, nothing under it


def infer_every_engine(block: str, genes, tmp_path: Path):
    """Each engine's printed logL and tree, ``infer`` run under ``block``
    (forked ranks inherit the blocked modules)."""
    fasta, parts, start = genes
    logls, trees = {}, {}
    for engine, flags in ENGINES.items():
        tree_out = tmp_path / f"{engine}.nwk"
        argv = ["infer", str(fasta), "-q", str(parts), "-t", str(start),
                "-n", "3", "-r", "2", "-s", "5", "--no-register",
                "-o", str(tree_out), *flags]
        out = run_python(
            block + f"from repro.cli import main\nsys.exit(main({argv!r}))",
            tmp_path)
        match = re.search(r"logL = (-?[\d.]+)", out)
        assert match, out
        logls[engine] = match.group(1)
        trees[engine] = parse_newick(tree_out.read_text())
    return logls, trees


def test_every_engine_infers_without_scipy(genes, tmp_path):
    logls, trees = infer_every_engine(BLOCK_SCIPY, genes, tmp_path)
    assert len(set(logls.values())) == 1, logls
    for engine in ("decentralized", "forkjoin"):
        assert rf_distance(trees["sequential"], trees[engine]) == 0


def test_every_engine_infers_without_unused_subsystems(genes, tmp_path):
    """A plain run imports none of :data:`UNUSED`, launcher or rank."""
    logls, _ = infer_every_engine(BLOCK_UNUSED, genes, tmp_path)
    assert len(set(logls.values())) == 1, logls


def test_gamma_rates_are_bitwise_equal_across_processes(tmp_path):
    """Replicas, fork-join workers and restarted runs recompute the rates
    from α; they must get the same bits in any interpreter."""
    code = BLOCK_SCIPY + "\n".join([
        "import hashlib",
        "import numpy as np",
        "from repro.model.rates import ALPHA_MAX, ALPHA_MIN, discrete_gamma_rates",
        "digest = hashlib.sha256()",
        "for alpha in np.geomspace(ALPHA_MIN, ALPHA_MAX, 257):",
        "    for k in (2, 4, 8, 16):",
        "        for method in ('mean', 'median'):",
        "            digest.update(discrete_gamma_rates(float(alpha), k, method).tobytes())",
        "print(digest.hexdigest())",
    ])
    first, second = run_python(code, tmp_path), run_python(code, tmp_path)
    assert len(first.strip()) == 64
    assert first == second
