"""The stacked likelihood core against its oracle, and its own contracts.

* values: stacks of 1, 2 and 5 partitions of 1, 7 and 32 patterns, Γ-4 /
  PSR / no rate heterogeneity, DNA and 20-state protein, joint and ``-M``
  branch lengths agree with the per-partition einsum reference
  (``reference_likelihood.py``) to 1e-12 relative, and rescale exactly the
  same patterns — including on a tree deep enough to cross
  ``SCALE_THRESHOLD``;
* row independence: any subset of a stack's partitions computed alone is
  bitwise what the same partitions give inside the full stack (the reason a
  rank holding 8 genes reduces to the sequential run's bits);
* partial masks: after one partition's model changes, the next descriptor
  recomputes that row only and leaves the store bitwise equal to a full
  recompute;
* batched traversals: a traversal run on a stack, its P matrices built
  several ops at a time and some ops masked to a subset of rows, leaves
  every row bitwise what running each op alone on a one-partition stack
  leaves, and both match the oracle;
* a stack's models decompose together to the bits each gives alone;
* the CLV store stays bounded over topology changes;
* a stacked profiler region reads as one call per partition, and the
  CLV bytes read off a stack's shape are the bytes its store holds.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_likelihood import ReferenceBackend

from repro.likelihood.backend import SequentialBackend
from repro.likelihood.kernel import SCALE_THRESHOLD
from repro.likelihood.partitioned import PartitionData, PartitionedLikelihood
from repro.likelihood.stack import PartitionStack, StackShape, wire_ops
from repro.model.rates import DiscreteGamma, NoRateHeterogeneity, PerSiteRates
from repro.model.substitution import SubstitutionModel, fill_eigen_caches
from repro.obs.hotspots import OpProfiler
from repro.obs.nullprofiler import NULL_OP_PROFILER
from repro.search.search import SearchConfig, hill_climb
from repro.seq.alphabet import AMINO_ACIDS, DNA
from repro.tree.newick import write_newick
from repro.tree.random_trees import random_topology
from repro.tree.topology import Tree


# --------------------------------------------------------------------- #
# generated inputs
# --------------------------------------------------------------------- #
def _model(rng, n_states: int) -> SubstitutionModel:
    return SubstitutionModel(rng.uniform(0.2, 4.0, n_states * (n_states - 1) // 2),
                             rng.dirichlet(np.full(n_states, 8.0)))


def _rate_het(rng, mode: str, n_patterns: int):
    if mode == "gamma":
        return DiscreteGamma(alpha=float(rng.uniform(0.3, 2.0)), n_cats=4)
    if mode == "psr":
        return PerSiteRates(rates=rng.uniform(0.2, 3.0, n_patterns))
    return NoRateHeterogeneity()


def _parts(rng, g: int, n_patterns: int, mode: str, n_states: int,
           n_taxa: int, minus_m: bool) -> list[PartitionData]:
    alphabet = DNA if n_states == 4 else AMINO_ACIDS
    parts = []
    for j in range(g):
        # a set bit per state, mostly one (resolved characters), some ambiguity
        masks = 1 << rng.integers(0, n_states, (n_taxa, n_patterns))
        masks |= (1 << rng.integers(0, n_states, masks.shape)) * (
            rng.random(masks.shape) < 0.15)
        parts.append(PartitionData(
            f"g{j}", masks.astype(np.uint32), rng.uniform(0.5, 3.0, n_patterns),
            _model(rng, n_states), _rate_het(rng, mode, n_patterns),
            branch_set=j if minus_m else 0, alphabet=alphabet))
    return parts


def _copies(parts: list[PartitionData]) -> list[PartitionData]:
    return [p.subset(np.arange(p.n_patterns)) for p in parts]


def _tree(rng, taxa: list[str], n_branch_sets: int) -> Tree:
    tree = random_topology(taxa, rng=rng)
    tree.set_n_branch_sets(n_branch_sets)
    for u, v in tree.edges():
        tree.set_edge_length(u, v, rng.uniform(0.01, 0.6, n_branch_sets))
    return tree


def _setup(seed: int, g: int, n_patterns: int, mode: str, n_states: int,
           minus_m: bool, n_taxa: int = 6):
    """``(stacked likelihood, reference backend)`` on equal data and trees."""
    rng = np.random.default_rng(seed)
    taxa = [f"t{i}" for i in range(n_taxa)]
    parts = _parts(rng, g, n_patterns, mode, n_states, n_taxa, minus_m)
    tree = _tree(rng, taxa, g if minus_m else 1)
    lik = PartitionedLikelihood(tree, parts, taxa)
    return lik, ReferenceBackend(tree.copy(), _copies(parts), taxa)


def _inner_edge(tree: Tree):
    for u, v in tree.edges():
        if not u.is_leaf and not v.is_leaf:
            return u, v
    raise AssertionError("tree has no inner edge")


def _same_edge(tree: Tree, u, v):
    return tree.node(u.id), tree.node(v.id)


SHAPES = st.tuples(
    st.integers(0, 2**31), st.sampled_from([1, 2, 5]),
    st.sampled_from([1, 7, 32]), st.sampled_from(["gamma", "psr", "none"]),
    st.sampled_from([4, 20]), st.booleans())


# --------------------------------------------------------------------- #
# values against the oracle
# --------------------------------------------------------------------- #
class TestAgainstReference:
    @given(SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_every_region_matches(self, shape):
        lik, ref = _setup(*shape)
        assert [s.partitions for s in lik.stacks] == [tuple(range(shape[1]))]
        for u, v in (lik.tree.edges()[0], _inner_edge(lik.tree)):
            ru, rv = _same_edge(ref.tree, u, v)
            total, per_part, _ = lik.evaluate(u, v)
            ref_total, ref_per_part = ref.evaluate(ru, rv)
            assert np.allclose(per_part, ref_per_part, rtol=1e-12, atol=0)
            assert total == pytest.approx(ref_total, rel=1e-12)
            for mine, want in zip(lik.site_log_likelihoods(u, v),
                                  ref.site_log_likelihoods(ru, rv)):
                assert np.allclose(mine, want, rtol=1e-12, atol=0)
            t = lik.tree.edge_length(u, v) * 1.3
            d1, d2 = lik.branch_derivatives(lik.prepare_branch(u, v), t)
            ref_d1, ref_d2 = ref.partition_derivatives(ref.begin_branch(ru, rv), t)
            # a derivative is a weighted sum of terms of either sign: the
            # tolerance is relative to the weights, not to the total
            scale = sum(p.weights.sum() for p in lik.parts)
            assert np.allclose(d1, ref_d1, rtol=1e-10, atol=1e-12 * scale)
            assert np.allclose(d2, ref_d2, rtol=1e-10, atol=1e-11 * scale)

    @pytest.mark.parametrize("mode", ["gamma", "psr"])
    def test_deep_tree_rescales_the_same_patterns(self, mode):
        """A 230-taxon caterpillar with long branches: the CLV magnitude
        crosses ``SCALE_THRESHOLD`` on the way to the root."""
        rng = np.random.default_rng(7)
        n_taxa, g, n_patterns = 230, 2, 7
        taxa = [f"t{i}" for i in range(n_taxa)]
        tree = Tree()
        spine = tree.add_node()
        for label in taxa[:2]:
            tree.connect(spine, tree.add_node(label), rng.uniform(0.8, 2.0))
        for label in taxa[2:-1]:
            nxt = tree.add_node()
            tree.connect(spine, nxt, rng.uniform(0.8, 2.0))
            tree.connect(nxt, tree.add_node(label), rng.uniform(0.8, 2.0))
            spine = nxt
        last = tree.add_node(taxa[-1])
        tree.connect(spine, last, 0.5)
        parts = _parts(rng, g, n_patterns, mode, 4, n_taxa, False)
        lik = PartitionedLikelihood(tree, parts, taxa)
        ref = ReferenceBackend(tree.copy(), _copies(parts), taxa)
        _, per_part, _ = lik.evaluate(spine, last)
        assert np.allclose(per_part, ref.evaluate(
            *_same_edge(ref.tree, spine, last))[1], rtol=1e-12, atol=0)
        (stack,) = lik.stacks
        rescaled = 0
        for (node, toward), (clv, scale) in list(stack.clvs.items())[::6]:
            for i, part in enumerate(ref.parts):
                ref_clv, ref_scale = ref.clv(
                    part, ref.tree.node(node), ref.tree.node(toward))
                # the oracle keeps patterns first: (patterns, cats, states)
                ref_clv = np.moveaxis(ref_clv, 0, -1)
                # which patterns were rescaled, exactly; by how much and
                # what is left, to rounding
                assert np.array_equal(scale[i] != 0, ref_scale != 0)
                assert np.allclose(scale[i], ref_scale, rtol=1e-12, atol=0)
                assert np.allclose(clv[i], ref_clv, rtol=1e-10, atol=0)
                rescaled += int(np.count_nonzero(scale[i]))
        assert rescaled > 0
        assert min(scale.min() for _, scale in stack.clvs.values()) < (
            np.log(SCALE_THRESHOLD))


# --------------------------------------------------------------------- #
# row independence
# --------------------------------------------------------------------- #
def _probe(lik: PartitionedLikelihood, rows: list[int] | None = None):
    """Everything a search reads, of the partitions ``rows``."""
    u, v = _inner_edge(lik.tree)
    _, per_part, _ = lik.evaluate(u, v)
    site = lik.site_log_likelihoods(u, v)
    d1, d2 = lik.branch_derivatives(lik.prepare_branch(u, v),
                                    lik.tree.edge_length(u, v) * 0.7)
    rows = list(range(lik.n_partitions)) if rows is None else rows
    return (per_part[rows], [site[i] for i in rows], d1[rows], d2[rows])


def _assert_bitwise(a, b) -> None:
    assert np.array_equal(a[0], b[0])
    assert all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
    assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])


class TestRowIndependence:
    @given(st.integers(0, 2**31), st.sampled_from([1, 7, 32]),
           st.sampled_from(["gamma", "psr", "none"]), st.sampled_from([4, 20]),
           st.booleans(), st.sets(st.integers(0, 4), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_subset_alone_equals_subset_in_stack(self, seed, n_patterns, mode,
                                                 n_states, minus_m, subset):
        rows = sorted(subset)
        lik, _ = _setup(seed, 5, n_patterns, mode, n_states, minus_m)
        alone_tree = lik.tree.copy()
        alone = PartitionedLikelihood(
            alone_tree, [lik.parts[i] for i in rows], lik.taxa)
        _assert_bitwise(_probe(alone), _probe(lik, rows))
        (full,), (sub,) = lik.stacks, alone.stacks
        for key, (clv, scale) in sub.clvs.items():
            assert np.array_equal(clv, full.clvs[key][0][rows])
            assert np.array_equal(scale, full.clvs[key][1][rows])

    def test_zero_pattern_shares_change_nothing(self):
        """A rank's view (some partitions without patterns) computes its
        own partitions to the bits of the full-data run."""
        lik, _ = _setup(11, 5, 7, "gamma", 4, False)
        mine = [1, 3, 4]
        local = [p if i in mine else p.subset(np.arange(0))
                 for i, p in enumerate(lik.parts)]
        share = PartitionedLikelihood(lik.tree.copy(), local, lik.taxa)
        got, want = _probe(share), _probe(lik)
        _assert_bitwise(tuple(x[mine] if isinstance(x, np.ndarray)
                              else [x[i] for i in mine] for x in got),
                        _probe(lik, mine))
        others = [i for i in range(5) if i not in mine]
        assert not got[0][others].any() and not got[2][others].any()
        assert want[0].all()


# --------------------------------------------------------------------- #
# partial masks
# --------------------------------------------------------------------- #
class TestPartialMask:
    @pytest.mark.parametrize("mode", ["gamma", "psr"])
    def test_one_changed_model_recomputes_one_row(self, mode):
        lik, _ = _setup(5, 5, 7, mode, 4, False)
        u, v = _inner_edge(lik.tree)
        lik.evaluate(u, v)
        full_ops = len(lik.descriptors_for_edge(v, u).ops)
        assert full_ops == 0  # same edge: everything is valid
        lik.profiler = prof = OpProfiler()
        new_rates = lik.parts[2].model.rates * np.array([1.5, 1, 1, 1, 1, 1.0])
        lik.set_gtr_rates(2, new_rates)

        descriptors = lik.descriptors_for_edge(u, v)
        n_ops = len(descriptors.ops)
        assert n_ops == len(lik.taxa) - 2  # a full traversal, for one row
        assert all(mask == frozenset({2}) for mask in descriptors.masks)
        # only partition 2 has work
        assert descriptors.op_counts() == [0, 0, n_ops, 0, 0]
        lik.execute_descriptors(descriptors)
        for p in range(5):
            assert prof.invocations("newview", p) == (n_ops if p == 2 else 0)
            assert prof.invocations("pmatrix", p) == (2 * n_ops if p == 2 else 0)
        assert len(lik.descriptors_for_edge(u, v).ops) == 0

        # a fresh likelihood over the same state recomputes every row
        fresh = PartitionedLikelihood(lik.tree.copy(), _copies(lik.parts),
                                      lik.taxa)
        _assert_bitwise(_probe(lik), _probe(fresh))
        (mine,), (theirs,) = lik.stacks, fresh.stacks
        for key, (clv, scale) in theirs.clvs.items():
            assert np.array_equal(clv, mine.clvs[key][0])
            assert np.array_equal(scale, mine.clvs[key][1])

    def test_nested_masks_after_two_changes(self):
        """Partition 0 changes, the edge moves, partition 3 changes: the
        later change needs the full traversal, the earlier one only what
        the first evaluation did not reach — and the longest per-partition
        descriptor is the edge's op list (what fork-join broadcasts)."""
        lik, ref = _setup(9, 5, 7, "gamma", 4, False, n_taxa=9)
        edges = [e for e in lik.tree.edges() if not e[0].is_leaf and not e[1].is_leaf]
        (u1, v1), (u2, v2) = edges[0], edges[-1]
        lik.evaluate(u1, v1)
        lik.set_alpha(0, 0.4)
        ref.set_alphas({0: 0.4})
        lik.evaluate(u1, v1)
        lik.set_alpha(3, 2.5)
        ref.set_alphas({3: 2.5})
        descriptors = lik.descriptors_for_edge(u2, v2)
        counts = descriptors.op_counts()
        assert counts[3] == len(descriptors.ops) == max(counts)
        assert 0 < counts[0] < counts[3] and counts[1] == counts[2] == counts[0]
        _, per_part, _ = lik.evaluate(u2, v2)
        assert np.allclose(per_part, ref.evaluate(
            *_same_edge(ref.tree, u2, v2))[1], rtol=1e-12, atol=0)


# --------------------------------------------------------------------- #
# batched traversals
# --------------------------------------------------------------------- #
def _traversal(tree: Tree, taxa: list[str], parts: list,
               masks: list) -> list[tuple]:
    """The stack ops of the full traversal toward an inner edge: a fresh
    likelihood's descriptor, with ``masks``."""
    row = {label: i for i, label in enumerate(taxa)}

    def ref(child, node):
        child = tree.node(child)
        return row[child.label] if child.is_leaf else (child.id, node)

    wire = PartitionedLikelihood(tree, parts, taxa).descriptors_for_edge(
        *_inner_edge(tree)).ops
    return wire_ops(wire, masks, ref)


class TestBatchedTraversal:
    @given(st.integers(0, 2**31), st.sampled_from([2, 5]),
           st.sampled_from([1, 7, 32]), st.sampled_from(["gamma", "psr"]),
           st.integers(4, 9), st.booleans(), st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_row_does_not_depend_on_its_batch(self, seed, g, n_patterns, mode,
                                                n_taxa, minus_m, per_build, data):
        rng = np.random.default_rng(seed)
        taxa = [f"t{i}" for i in range(n_taxa)]
        parts = _parts(rng, g, n_patterns, mode, 4, n_taxa, minus_m)
        tree = _tree(rng, taxa, g if minus_m else 1)
        stacked = PartitionStack(list(range(g)), parts)
        stacked.ops_per_build = per_build
        alone = [PartitionStack([p], parts) for p in range(g)]
        n_ops = n_taxa - 2
        # a full traversal; then some models change and a second one covers
        # every op for them, and for whatever else its masks draw (or all)
        changed = data.draw(st.sets(st.integers(0, g - 1), min_size=1))
        mask = st.sets(st.integers(0, g - 1)).map(changed.union)
        if data.draw(st.booleans()):
            mask = st.none() | mask
        masks = [data.draw(mask) for _ in range(n_ops)]
        for step in range(2):
            if step:
                for p in changed:
                    parts[p].model = parts[p].model.with_rates(
                        parts[p].model.rates * 1.3)
                    parts[p].bump_model()
            ops = _traversal(tree, taxa, parts,
                             masks if step else [None] * n_ops)
            stacked.traverse(ops, NULL_OP_PROFILER)
            for stack in alone:
                for op in ops:
                    stack.traverse([op], NULL_OP_PROFILER)
        assert len(stacked.clvs) == n_ops
        ref = ReferenceBackend(tree, parts, taxa)
        for key, (clv, scale) in stacked.clvs.items():
            node, toward = tree.node(key[0]), tree.node(key[1])
            for p, part in enumerate(parts):
                assert np.array_equal(clv[p], alone[p].clvs[key][0][0])
                assert np.array_equal(scale[p], alone[p].clvs[key][1][0])
                want, want_scale = ref.clv(part, node, toward)
                want = np.moveaxis(want, 0, -1)  # oracle: patterns first
                assert np.allclose(clv[p], want, rtol=1e-10, atol=0)
                assert np.array_equal(scale[p] != 0, want_scale != 0)
                assert np.allclose(scale[p], want_scale, rtol=1e-12, atol=0)


# --------------------------------------------------------------------- #
# model updates decompose once per stack
# --------------------------------------------------------------------- #
class TestStackedDecomposition:
    @pytest.mark.parametrize("n_states", [4, 20])
    def test_rows_are_bitwise_the_single_model_path(self, n_states):
        rng = np.random.default_rng(3)
        params = [(rng.uniform(0.2, 4.0, n_states * (n_states - 1) // 2),
                   rng.dirichlet(np.full(n_states, 8.0))) for _ in range(16)]
        together = [SubstitutionModel(r, f) for r, f in params]
        fill_eigen_caches(together)
        for model, (r, f) in zip(together, params):
            alone = SubstitutionModel(r, f).eigen()
            mine = model.eigen()
            for name in ("eigenvalues", "left", "right", "frequencies"):
                assert np.array_equal(getattr(mine, name), getattr(alone, name))
            p = mine.pmatrices(0.3)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_equal_parameters_give_equal_bits(self):
        """``with_rates`` keeps the frequencies exactly, so a model set
        back to its old rates gives its old likelihood, not a neighbour."""
        lik, _ = _setup(2, 5, 32, "gamma", 4, False)
        u, v = _inner_edge(lik.tree)
        _, before, _ = lik.evaluate(u, v)
        old = [p.model.rates.copy() for p in lik.parts]
        for _ in range(3):
            for p in range(5):
                lik.set_gtr_rates(p, old[p] * 1.1)
            lik.evaluate(u, v)
            for p in range(5):
                lik.set_gtr_rates(p, old[p])
        assert np.array_equal(lik.evaluate(u, v)[1], before)


# --------------------------------------------------------------------- #
# bounded CLV store
# --------------------------------------------------------------------- #
class TestBoundedStore:
    def _search(self, sweep: bool):
        rng = np.random.default_rng(21)
        taxa = [f"t{i}" for i in range(12)]
        parts = _parts(rng, 3, 32, "gamma", 4, 12, False)
        tree = _tree(rng, taxa, 1)
        lik = PartitionedLikelihood(tree, parts, taxa)
        if not sweep:
            lik._sweep = lambda: None
        backend = SequentialBackend(lik)
        peak = [0]
        evaluate = backend.evaluate

        def watched(u, v):
            out = evaluate(u, v)
            peak[0] = max(peak[0], len(lik.stacks[0].clvs))
            return out

        backend.evaluate = watched
        result = hill_climb(backend, SearchConfig(
            max_iterations=5, radius_max=3, model_opt=False, epsilon=1e-9))
        return result, write_newick(tree, lengths=False), peak[0], lik

    def test_store_stays_under_twice_the_orientations(self):
        result, newick, peak, lik = self._search(sweep=True)
        bound = 2 * 3 * (12 - 2)
        assert result.moves_accepted > 0
        assert peak <= bound
        assert lik.clv_stats()[0]["evictions"] > 0  # it did sweep
        assert len(lik._stamps) == len(lik.stacks[0].clvs)
        # sweeping only drops what no tree edge can reach: same search
        unswept, unswept_newick, unswept_peak, _ = self._search(sweep=False)
        assert unswept_peak > bound  # the leak this bounds
        assert newick == unswept_newick and result.logl == unswept.logl

    def test_drop_clvs_forgets_everything(self):
        lik, _ = _setup(1, 2, 7, "gamma", 4, False)
        u, v = _inner_edge(lik.tree)
        total, _, _ = lik.evaluate(u, v)
        lik.drop_clvs()
        assert not lik._stamps
        assert all(s["entries"] == 0 and s["live_bytes"] == 0
                   for s in lik.clv_stats())
        assert len(lik.descriptors_for_edge(u, v).ops) == len(lik.taxa) - 2
        assert lik.evaluate(u, v)[0] == total


# --------------------------------------------------------------------- #
# stacked profiler accounting
# --------------------------------------------------------------------- #
class TestStackedAccounting:
    def test_one_region_reads_as_one_call_per_partition(self):
        shape = StackShape((0, 1, 2), n_patterns=8, n_cats=4, n_states=4,
                           n_rates=4, site_specific=False, unit=32.0)
        stack = SimpleNamespace(shape=shape)
        prof = OpProfiler()
        prof.end(prof.begin(), "newview", stack)
        prof.end(prof.begin(), "newview", stack)
        prof.end(prof.begin(), "newview", stack, [1])
        prof.end(prof.begin(), "pmatrix", stack, count=2)
        assert len(prof._acc) == 3  # one accumulator per (op, shape, rows)
        assert len(prof.records()) == 6  # read per (op, partition)
        assert [prof.invocations("newview", p) for p in range(3)] == [2, 3, 2]
        assert prof.units("newview") == 7 * 32.0
        # pmatrix units are matrices: one per rate, per call
        assert prof.invocations("pmatrix") == 6 and prof.units("pmatrix") == 24.0
        records = {(r["op"], r["partition"]): r for r in prof.records()}
        # a CLV is cats · states · patterns doubles plus a scale per pattern
        assert records[("newview", 1)]["alloc_bytes"] == 3 * (4 * 4 + 1) * 8 * 8
        assert records[("pmatrix", 0)]["alloc_bytes"] == 2 * 4 * 16 * 8
        # a stacked region's time is shared evenly over its partitions
        assert records[("newview", 0)]["wall_ns"] == records[("newview", 2)]["wall_ns"]
        stacked = sum(acc[0] for (op, _, _), acc in prof._acc.items()
                      if op == "newview")
        assert sum(r["wall_ns"] for r in prof.records()
                   if r["op"] == "newview") == pytest.approx(stacked, abs=3)
        # the profile holds the shape, not the stack: a rebuilt likelihood's
        # old stacks (and their CLVs) are not kept alive by it
        assert all(key[1] is shape for key in prof._acc)

    def test_disabled_hooks_are_handed_nothing_computed(self):
        """With profiling off, a kernel call hands its hook only what it
        already holds — the start stamp, the op, the stack and the rows it
        computed — and the stack keeps entry counts, no byte sums."""

        class Recording:
            enabled = False

            def __init__(self):
                self.calls = []

            def begin(self):
                return 0

            def end(self, *args, **kwargs):
                self.calls.append((args, kwargs))

        lik, _ = _setup(5, 3, 7, "gamma", 4, False)
        (stack,) = lik.stacks
        lik.profiler = prof = Recording()
        u, v = _inner_edge(lik.tree)
        lik.evaluate(u, v)
        lik.invalidate_partition(1)
        lik.evaluate(u, v)  # the traversal recomputes row 1 only
        ws = lik.prepare_branch(u, v)
        lik.branch_derivatives(ws, lik.tree.edge_length(u, v))
        ops, masked = set(), []
        for args, kwargs in prof.calls:
            assert set(kwargs) <= {"count"} and 3 <= len(args) <= 5, args
            t0, op, owner, *rest = args
            assert t0 == 0 and owner is stack
            ops.add(op)
            if rest and rest[0] is not None:
                assert set(rest[0]) < set(range(3)), rest
                masked.append(rest[0])
            if len(rest) == 2:
                assert isinstance(rest[1], int)
        assert ops == {"pmatrix", "newview", "evaluate", "sumtable",
                       "derivative"}
        assert masked and all(rows == [1] for rows in masked)
        assert not [name for name in vars(stack) if "bytes" in name]

    def test_profiler_and_ledger_agree_on_a_stacked_search(self):
        """The second side is the region log the same search kept (what
        the performance model prices)."""
        from region_work import PATTERN_OPS, region_work

        lik, _ = _setup(4, 5, 32, "gamma", 4, False)
        lik.profiler = prof = OpProfiler()
        backend = SequentialBackend(lik)
        hill_climb(backend, SearchConfig(max_iterations=1, radius_max=2))
        work = region_work(backend.log, lik.parts)
        for op in PATTERN_OPS:
            assert (prof.units(op), prof.invocations(op)) == work[op]
        assert prof.invocations("pmatrix") == (
            2 * prof.invocations("newview") + prof.invocations("evaluate"))
        stats = lik.clv_stats()
        (stack,) = lik.stacks
        assert all(s["entries"] == len(stack.clvs) for s in stats)
        # bytes read off the shape are the bytes the store holds
        assert sum(s["live_bytes"] for s in stats) == sum(
            clv.nbytes + scale.nbytes for clv, scale in stack.clvs.values())
