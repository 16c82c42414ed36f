#!/usr/bin/env python3
"""The two parallelization schemes, genuinely distributed.

Runs the identical search three ways on a small dataset:

1. sequential reference (1 process);
2. the de-centralized scheme (ExaML) on 3 real OS processes — every rank
   a full replica, communicating only through allreduces;
3. the fork-join scheme (RAxML-Light) on 3 real OS processes — rank 0 as
   master broadcasting traversal descriptors to tree-agnostic workers;

then compares trees, likelihoods and per-category communication bytes.
Both distributed runs are one :class:`~repro.engines.launch.RunConfig`
handed to :func:`~repro.engines.launch.launch`; they differ in the
``engine`` field only.

Run:  python examples/distributed_engines.py
"""

from dataclasses import replace

from repro.engines.launch import (
    RunConfig,
    first_survivor,
    launch,
    run_sequential_reference,
)
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.model.substitution import GTR
from repro.search.search import SearchConfig
from repro.seq.simulate import simulate_alignment
from repro.tree.newick import write_newick
from repro.tree.random_trees import random_topology, yule_tree


def main() -> None:
    taxa = [f"t{i}" for i in range(9)]
    true_tree = yule_tree(taxa, rng=21, mean_branch_length=0.12)
    model = GTR([1.2, 3.0, 0.8, 1.2, 3.8, 1.0], [0.3, 0.2, 0.25, 0.25])
    alignment = simulate_alignment(true_tree, model, 600, rng=22, gamma_alpha=0.8)

    start = random_topology(taxa, rng=23)
    newick = write_newick(start)
    lik = PartitionedLikelihood.build(alignment, start.copy(), rate_mode="gamma")
    config = SearchConfig(max_iterations=3, radius_max=3, alpha_iterations=8)

    print("sequential reference ...")
    ref = run_sequential_reference(lik.parts, lik.taxa, newick, config)
    print(f"  logl = {ref.logl:.4f}")

    print("de-centralized (ExaML) on 3 processes ...")
    run = RunConfig("decentralized", lik.parts, lik.taxa, newick, n_ranks=3,
                    config=config)
    replicas = launch(run)
    consistent = all(
        r.newick == replicas[0].newick and r.logl == replicas[0].logl
        for r in replicas
    )
    print(f"  logl = {replicas[0].logl:.4f}   replicas bitwise consistent: "
          f"{consistent}")
    print("  bytes by purpose:", {
        k: v for k, v in sorted(replicas[0].bytes_by_tag.items())
    })

    print("fork-join (RAxML-Light) on 3 processes ...")
    fj = first_survivor(launch(replace(run, engine="forkjoin")))
    print(f"  logl = {fj.logl:.4f}")
    print("  master bytes by purpose:", {
        k: v for k, v in sorted(fj.bytes_by_tag.items())
    })

    print("\nsame final topology, all three runs:",
          ref.newick == replicas[0].newick == fj.newick)
    print("fork-join/decentralized communication volume:",
          f"{sum(fj.bytes_by_tag.values()) / max(1, sum(replicas[0].bytes_by_tag.values())):.1f}x")


if __name__ == "__main__":
    main()
