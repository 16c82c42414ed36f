"""The paper's two dataset families, as scaled virtual workloads.

* :func:`large_unpartitioned_workload` — the 150-taxon × 20,000,000 bp
  simulated DNA alignment (12,597,450 unique patterns) of Figure 3.  We
  simulate a 150-taxon alignment with a small real pattern count and mark
  it with a ``pattern_scale`` so the performance model charges the full
  12.6 M patterns (see DESIGN.md, substitutions).
* :func:`partitioned_workload` — the 52-taxon multi-gene alignments of
  Figure 4 / Table I: ``p`` partitions of ~1000 bp each, for
  ``p ∈ {10, 50, 100, 500, 1000}``.  Per-gene GTR models, per-gene rate
  multipliers and per-gene Γ shapes give the partitions the heterogeneity
  that motivates partitioned analyses in the first place.

Both return a :class:`PaperWorkload` bundling the alignment, starting
tree and ready-to-run likelihood builders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.substitution import SubstitutionModel
from repro.seq.alignment import Alignment
from repro.seq.partitions import PartitionScheme
from repro.seq.simulate import simulate_partitioned_alignment, simulate_alignment
from repro.tree.random_trees import random_topology, yule_tree
from repro.tree.topology import Tree
from repro.likelihood.partitioned import PartitionedLikelihood

__all__ = [
    "PaperWorkload",
    "partitioned_workload",
    "large_unpartitioned_workload",
    "PARTITION_SERIES",
]

#: The partition counts of Figure 4 (10 … 1000 × ~1000 bp genes).
PARTITION_SERIES = (10, 50, 100, 500, 1000)

#: Figure 3's alignment dimensions.
LARGE_N_TAXA = 150
LARGE_UNIQUE_PATTERNS = 12_597_450


@dataclass
class PaperWorkload:
    """A generated benchmark dataset plus its provenance."""

    name: str
    alignment: Alignment
    scheme: PartitionScheme
    tree: Tree
    pattern_scale: float
    rng_seed: int

    def build_likelihood(
        self,
        rate_mode: str,
        per_partition_branches: bool = False,
        n_cats: int = 4,
    ) -> PartitionedLikelihood:
        """Assemble the likelihood over a fresh copy of the starting tree."""
        tree = self.tree.copy()
        return PartitionedLikelihood.build(
            self.alignment,
            tree,
            scheme=self.scheme,
            rate_mode=rate_mode,
            n_cats=n_cats,
            per_partition_branches=per_partition_branches,
            pattern_scale=self.pattern_scale,
        )


def _random_gtr(rng: np.random.Generator) -> SubstitutionModel:
    """A biologically flavored random GTR: transitions faster than
    transversions, moderately skewed base frequencies."""
    # order: AC, AG, AT, CG, CT, GT
    rates = np.array(
        [
            rng.uniform(0.5, 2.0),
            rng.uniform(2.0, 6.0),
            rng.uniform(0.3, 1.5),
            rng.uniform(0.5, 2.0),
            rng.uniform(2.0, 6.0),
            1.0,
        ]
    )
    freqs = rng.dirichlet(np.full(4, 20.0))
    return SubstitutionModel(rates, freqs)


def partitioned_workload(
    n_partitions: int,
    n_taxa: int = 52,
    sites_per_partition: int = 48,
    virtual_sites_per_partition: int = 1000,
    seed: int = 2013,
) -> PaperWorkload:
    """One of the Figure 4 datasets: ``n_partitions`` gene-sized blocks.

    ``sites_per_partition`` real sites are simulated per gene and stand
    for ``virtual_sites_per_partition`` (the paper's ~1000 bp average gene
    length) in the performance model.
    """
    rng = np.random.default_rng((seed, n_partitions))
    taxa = [f"taxon{i:02d}" for i in range(n_taxa)]
    true_tree = yule_tree(taxa, rng=rng, mean_branch_length=0.09)
    models = [_random_gtr(rng) for _ in range(n_partitions)]
    alphas = [float(rng.uniform(0.3, 1.5)) for _ in range(n_partitions)]
    multipliers = [float(rng.uniform(0.5, 2.0)) for _ in range(n_partitions)]
    alignment = simulate_partitioned_alignment(
        true_tree,
        models,
        [sites_per_partition] * n_partitions,
        rng=rng,
        gamma_alphas=alphas,
        partition_rate_multipliers=multipliers,
    )
    scheme = PartitionScheme.contiguous_blocks(
        [sites_per_partition] * n_partitions,
        names=[f"gene{i:04d}" for i in range(n_partitions)],
    )
    start = random_topology(taxa, rng=rng, default_length=0.08)
    return PaperWorkload(
        name=f"52taxa_{n_partitions}part",
        alignment=alignment,
        scheme=scheme,
        tree=start,
        pattern_scale=virtual_sites_per_partition / sites_per_partition,
        rng_seed=seed,
    )


def large_unpartitioned_workload(
    n_taxa: int = LARGE_N_TAXA,
    real_sites: int = 600,
    virtual_patterns: float = LARGE_UNIQUE_PATTERNS,
    seed: int = 150,
) -> PaperWorkload:
    """Figure 3's 150 × 20,000,000 bp alignment as a scaled workload.

    The real alignment drives a genuine tree search; the ``pattern_scale``
    makes every kernel charge the full 12,597,450-pattern cost so the
    simulated runtimes, memory footprints and message sizes are those of
    the paper's dataset.
    """
    rng = np.random.default_rng(seed)
    taxa = [f"species{i:03d}" for i in range(n_taxa)]
    true_tree = yule_tree(taxa, rng=rng, mean_branch_length=0.07)
    model = _random_gtr(rng)
    alignment = simulate_alignment(
        true_tree, model, real_sites, rng=rng, gamma_alpha=0.8
    )
    scheme = PartitionScheme.single(alignment.n_sites, name="genome")
    # scale relative to the *compressed* pattern count so the virtual
    # pattern total hits the paper's number exactly
    real_patterns = alignment.compress().n_patterns
    start = random_topology(taxa, rng=rng, default_length=0.08)
    return PaperWorkload(
        name="150taxa_20Mbp",
        alignment=alignment,
        scheme=scheme,
        tree=start,
        pattern_scale=virtual_patterns / real_patterns,
        rng_seed=seed,
    )
