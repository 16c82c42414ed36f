"""Checkpoint / restart tests."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.optimize_branch import smooth_all_branches
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.search.checkpoint import load_checkpoint, restore_into, save_checkpoint
from repro.seq.partitions import PartitionScheme
from repro.tree.distances import same_topology
from repro.tree.random_trees import random_topology


@pytest.fixture()
def optimized(sim_dataset):
    aln, true_tree, _ = sim_dataset
    scheme = PartitionScheme.contiguous_blocks([600, 600])
    lik = PartitionedLikelihood.build(aln, true_tree.copy(), scheme=scheme,
                                      rate_mode="gamma")
    be = SequentialBackend(lik)
    smooth_all_branches(be, passes=1)
    be.set_alphas({0: 0.55, 1: 1.7})
    lik.set_gtr_rates(0, np.array([1.5, 3.0, 0.7, 1.1, 3.3, 1.0]))
    u, v = lik.tree.edges()[0]
    logl, _, _ = lik.evaluate(u, v)
    return aln, scheme, lik, logl


class TestRoundTrip:
    def test_full_state_restores(self, optimized, tmp_path, sim_dataset):
        aln, scheme, lik, logl = optimized
        path = tmp_path / "state.npz"
        save_checkpoint(path, lik, iteration=7, radius=3, logl=logl)

        fresh = PartitionedLikelihood.build(
            aln, random_topology(lik.taxa, rng=99), scheme=scheme,
            rate_mode="gamma",
        )
        meta, arrays = load_checkpoint(path)
        it, radius, saved_logl = restore_into(fresh, meta, arrays)
        assert (it, radius) == (7, 3)
        assert saved_logl == logl
        assert same_topology(fresh.tree, lik.tree)
        assert fresh.get_alpha(0) == pytest.approx(0.55)
        assert fresh.get_alpha(1) == pytest.approx(1.7)
        u, v = fresh.tree.edges()[0]
        total, _, _ = fresh.evaluate(u, v)
        assert total == pytest.approx(logl, abs=1e-6)

    def test_psr_rates_round_trip(self, sim_dataset, tmp_path):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="psr")
        rng = np.random.default_rng(3)
        lik.set_psr_rates(0, rng.uniform(0.2, 4.0, lik.parts[0].n_patterns))
        u, v = lik.tree.edges()[0]
        logl, _, _ = lik.evaluate(u, v)
        path = tmp_path / "psr.npz"
        save_checkpoint(path, lik, 1, 1, logl)
        fresh = PartitionedLikelihood.build(
            aln, random_topology(lik.taxa, rng=5), rate_mode="psr"
        )
        meta, arrays = load_checkpoint(path)
        restore_into(fresh, meta, arrays)
        total, _, _ = fresh.evaluate(*fresh.tree.edges()[0])
        assert total == pytest.approx(logl, abs=1e-6)

    def test_per_partition_branches_round_trip(self, sim_dataset, tmp_path):
        aln, true_tree, _ = sim_dataset
        scheme = PartitionScheme.contiguous_blocks([600, 600])
        lik = PartitionedLikelihood.build(
            aln, true_tree.copy(), scheme=scheme, rate_mode="none",
            per_partition_branches=True,
        )
        u, v = lik.tree.edges()[0]
        lik.tree.set_edge_length(u, v, np.array([0.3, 0.7]))
        logl, _, _ = lik.evaluate(u, v)
        path = tmp_path / "m.npz"
        save_checkpoint(path, lik, 2, 2, logl)
        fresh = PartitionedLikelihood.build(
            aln, random_topology(lik.taxa, rng=5), scheme=scheme,
            rate_mode="none", per_partition_branches=True,
        )
        meta, arrays = load_checkpoint(path)
        restore_into(fresh, meta, arrays)
        total, _, _ = fresh.evaluate(*fresh.tree.edges()[0])
        assert total == pytest.approx(logl, abs=1e-6)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_taxa_rejected(self, optimized, tmp_path):
        aln, scheme, lik, logl = optimized
        path = tmp_path / "x.npz"
        save_checkpoint(path, lik, 1, 1, logl)
        other_taxa = [f"x{i}" for i in range(10)]
        from repro.seq.simulate import simulate_alignment
        from repro.model.substitution import JC69
        from repro.tree.random_trees import yule_tree

        tree2 = yule_tree(other_taxa, rng=1)
        aln2 = simulate_alignment(tree2, JC69(), 1200, rng=2)
        lik2 = PartitionedLikelihood.build(aln2, tree2.copy(), scheme=scheme,
                                           rate_mode="gamma")
        meta, arrays = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="taxon set"):
            restore_into(lik2, meta, arrays)

    def test_partition_count_mismatch(self, optimized, tmp_path, sim_dataset):
        aln, scheme, lik, logl = optimized
        path = tmp_path / "y.npz"
        save_checkpoint(path, lik, 1, 1, logl)
        lik2 = PartitionedLikelihood.build(
            aln, random_topology(lik.taxa, rng=4), rate_mode="gamma"
        )
        meta, arrays = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="partition count"):
            restore_into(lik2, meta, arrays)

    def test_rate_kind_mismatch(self, optimized, tmp_path):
        aln, scheme, lik, logl = optimized
        path = tmp_path / "z.npz"
        save_checkpoint(path, lik, 1, 1, logl)
        lik2 = PartitionedLikelihood.build(
            aln, random_topology(lik.taxa, rng=4), scheme=scheme,
            rate_mode="psr",
        )
        meta, arrays = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="mismatch"):
            restore_into(lik2, meta, arrays)


class TestDeepTree:
    def test_caterpillar_round_trip(self, tmp_path):
        """Edge names of a 1,200-level tree are computed iteratively."""
        from test_newick import caterpillar_newick

        from repro.likelihood.partitioned import PartitionData
        from repro.model.rates import NoRateHeterogeneity
        from repro.model.substitution import JC69
        from repro.tree.newick import parse_newick, write_newick

        def likelihood(tree):
            taxa = sorted(leaf.label for leaf in tree.leaves())
            part = PartitionData("p", np.ones((len(taxa), 1), dtype=np.uint32),
                                 np.ones(1), JC69(), NoRateHeterogeneity())
            return PartitionedLikelihood(tree, [part], taxa)

        tree = parse_newick(caterpillar_newick(1200))
        lik = likelihood(tree)
        save_checkpoint(tmp_path / "deep.npz", lik, 3, 2, -1.5)
        other = likelihood(random_topology(lik.taxa, rng=5))
        assert restore_into(other, *load_checkpoint(tmp_path / "deep.npz")) \
            == (3, 2, -1.5)
        assert write_newick(other.tree) == write_newick(tree)


class TestAtomicity:
    """Checkpoints guard against crashes — writing one must never leave a
    torn archive where the previous good checkpoint used to be."""

    def test_no_tmp_sibling_left_behind(self, optimized, tmp_path):
        aln, scheme, lik, logl = optimized
        path = tmp_path / "atomic.npz"
        save_checkpoint(path, lik, 1, 1, logl)
        assert path.exists()
        assert sorted(tmp_path.iterdir()) == [path]

    def test_bare_path_gets_npz_suffix(self, optimized, tmp_path):
        aln, scheme, lik, logl = optimized
        save_checkpoint(tmp_path / "bare", lik, 1, 1, logl)
        assert (tmp_path / "bare.npz").exists()

    def test_parent_directory_is_fsynced_after_rename(self, optimized,
                                                      tmp_path, monkeypatch):
        # The rename is only durable once the directory entry hits disk;
        # a crash in between would leave a restart with no checkpoint.
        import repro.durable
        import repro.search.checkpoint as cp

        synced = []
        monkeypatch.setattr(repro.durable, "_fsync_dir", synced.append)
        aln, scheme, lik, logl = optimized
        cp.save_checkpoint(tmp_path / "durable.npz", lik, 1, 1, logl)
        assert synced == [tmp_path]

    def test_overwrite_is_all_or_nothing(self, optimized, tmp_path,
                                         monkeypatch):
        aln, scheme, lik, logl = optimized
        path = tmp_path / "survives.npz"
        save_checkpoint(path, lik, iteration=1, radius=1, logl=logl)
        good = path.read_bytes()

        import os as _os
        def exploding_fsync(fd):
            raise OSError("disk went away")
        monkeypatch.setattr(_os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            save_checkpoint(path, lik, iteration=2, radius=2, logl=logl)
        monkeypatch.undo()

        # the old checkpoint is intact and loadable, no .tmp debris
        assert path.read_bytes() == good
        meta, _ = load_checkpoint(path)
        assert meta["iteration"] == 1
        assert sorted(tmp_path.iterdir()) == [path]

    def test_truncated_file_rejected(self, optimized, tmp_path):
        aln, scheme, lik, logl = optimized
        path = tmp_path / "torn.npz"
        save_checkpoint(path, lik, 1, 1, logl)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # simulate a torn write
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
