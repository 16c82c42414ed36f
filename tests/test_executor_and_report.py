"""Worker-kernel executor, report formatting and work-accounting tests."""

import numpy as np
import pytest

from repro.engines import EventLog, Region, RegionKind
from repro.engines.executor import DescriptorExecutor
from repro.errors import CommError
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.obs.hotspots import OpProfiler
from repro.perf.price import format_table1, table1_rows

from region_work import region_work


@pytest.fixture()
def setup(sim_dataset):
    """A likelihood plus the wire descriptor reaching one edge."""
    aln, true_tree, _ = sim_dataset
    lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="gamma")
    tree = lik.tree
    u, v = tree.edges()[0]
    # a fresh likelihood's descriptor: every CLV toward the edge
    wire = PartitionedLikelihood(tree, lik.parts, lik.taxa).descriptors_for_edge(
        u, v).ops
    node_taxon = {
        leaf.id: lik.taxon_row[leaf.label] for leaf in tree.leaves()
    }
    return lik, u, v, wire, node_taxon


class TestDescriptorExecutor:
    def test_matches_tree_aware_evaluation(self, setup):
        lik, u, v, wire, node_taxon = setup
        executor = DescriptorExecutor(lik.parts, node_taxon)
        executor.run_ops(wire)
        per_part, site_lhs = executor.evaluate(
            u.id, v.id, lik.tree.edge_length(u, v)
        )
        total_ref, per_ref, _ = lik.evaluate(u, v)
        assert np.allclose(per_part, per_ref, rtol=1e-12)
        assert site_lhs[0].shape == (lik.parts[0].n_patterns,)

    def test_derivatives_match(self, setup):
        lik, u, v, wire, node_taxon = setup
        executor = DescriptorExecutor(lik.parts, node_taxon)
        executor.run_ops(wire)
        tables = executor.sumtables(u.id, v.id)
        t = lik.tree.edge_length(u, v)
        d = executor.derivatives(tables, t, n_branch_sets=1)
        ws = lik.prepare_branch(u, v)
        d1_ref, d2_ref = lik.branch_derivatives(ws, t)
        assert d[0][0] == pytest.approx(d1_ref.sum(), rel=1e-9)
        assert d[1][0] == pytest.approx(d2_ref.sum(), rel=1e-9)

    def test_unknown_clv_is_loud(self, setup):
        lik, u, v, wire, node_taxon = setup
        executor = DescriptorExecutor(lik.parts, node_taxon)
        with pytest.raises(CommError, match="unknown CLV"):
            executor.evaluate(u.id, v.id, lik.tree.edge_length(u, v))

    def test_descriptor_reads_only_earlier_ops(self, setup):
        """An op may read the CLV an earlier op of the same descriptor
        makes, not a later one's; a bad descriptor is refused before any
        op runs."""
        lik, u, v, wire, node_taxon = setup
        executor = DescriptorExecutor(lik.parts, node_taxon)
        with pytest.raises(CommError, match="unknown CLV"):
            executor.run_ops(wire[::-1])
        assert all(not stack.clvs for stack in executor.stacks)
        executor.run_ops(wire)
        assert len(executor.stacks[0].clvs) == len(wire)


class TestWorkLedger:
    """The work a likelihood call does, accounted twice: by the kernels
    (op profiler) and by the region the backend records for it."""

    def test_likelihood_charges_ledger(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="gamma")
        lik.profiler = prof = OpProfiler()
        backend = SequentialBackend(lik)
        u, v = lik.tree.edges()[0]
        backend.evaluate(u, v)
        work = region_work(backend.log, lik.parts)
        assert prof.invocations("newview") == work["newview"][1] > 0
        assert prof.invocations("evaluate") == work["evaluate"][1] == 1
        assert prof.units("newview") == work["newview"][0]


class TestReportFormatting:
    def _log(self):
        return EventLog([
            Region(RegionKind.EVALUATE, 10, 1, newview_ops=4.0),
            Region(RegionKind.DERIVATIVE, 10, 1),
        ])

    def test_table1_rows_complete(self):
        rows = table1_rows(self._log())
        assert rows["# parallel regions"] == 2
        pct = [v for k, v in rows.items() if k.endswith("[%]")]
        assert sum(pct) == pytest.approx(100.0)

    def test_format_table1_renders(self):
        text = format_table1({"Γ, joint": self._log(), "PSR, joint": self._log()})
        assert "traversal descriptor [%]" in text
        assert "Γ, joint" in text
        assert len(text.splitlines()) == 7

    def test_empty_log(self):
        rows = table1_rows(EventLog())
        assert rows["# bytes communicated (MB)"] == 0.0
