"""Engine communication-model tests: the paper's core claims in byte form."""

import numpy as np
import pytest

from repro.engines import EventLog, Region, RegionKind, decentral
from repro.engines.forkjoin import (
    CAT_BL_OPT,
    CAT_LIKELIHOOD,
    CAT_MODEL,
    CAT_TRAVERSAL,
    descriptor_nbytes,
    region_events,
)
from repro.perf.price import comm_totals


def region(kind, p=10, nbs=1, ops=5.0):
    return Region(kind=kind, n_partitions=p, n_branch_sets=nbs, newview_ops=ops)


class TestDescriptorBytes:
    def test_grows_with_ops(self):
        assert descriptor_nbytes(10, 1) > descriptor_nbytes(5, 1)

    def test_grows_with_partitions(self):
        # the paper's central observation: partitioned descriptors are fat
        assert descriptor_nbytes(5, 1000) > 50 * descriptor_nbytes(5, 10)

    def test_paper_style_size(self):
        # a 5-op descriptor on an unpartitioned dataset is tiny (~164 B)
        assert descriptor_nbytes(5, 1) == 4 + 5 * (16 + 16)


def fj_bytes(log):
    return sum(comm_totals(log, "forkjoin").nbytes.values())


class TestForkJoinMapping:
    events = staticmethod(region_events)

    def test_every_likelihood_region_broadcasts_a_descriptor(self):
        for kind in (RegionKind.TRAVERSE, RegionKind.EVALUATE,
                     RegionKind.BRANCH_SETUP, RegionKind.PSR_SCAN):
            events = self.events(region(kind))
            assert any(
                e.collective == "bcast" and e.category == CAT_TRAVERSAL
                for e in events
            )

    def test_evaluate_reduces_per_partition_likelihoods(self):
        events = self.events(region(RegionKind.EVALUATE, p=37))
        reduce = [e for e in events if e.collective == "reduce"]
        assert reduce[0].nbytes == 8 * 37
        assert reduce[0].category == CAT_LIKELIHOOD

    def test_derivative_bytes_scale_with_branch_sets(self):
        joint = self.events(region(RegionKind.DERIVATIVE, nbs=1))
        per_part = self.events(
            region(RegionKind.DERIVATIVE, nbs=100)
        )
        assert sum(e.nbytes for e in per_part) == 100 * sum(
            e.nbytes for e in joint
        )
        assert all(e.category == CAT_BL_OPT for e in joint)

    def test_param_broadcasts(self):
        alpha = self.events(region(RegionKind.PARAM_ALPHA, p=50))
        assert alpha[0].nbytes == 8 * 50
        gtr = self.events(region(RegionKind.PARAM_GTR, p=50))
        assert gtr[0].nbytes == 6 * 8 * 50
        assert all(e.category == CAT_MODEL for e in alpha + gtr)

    def test_totals_have_all_categories(self):
        log = EventLog([region(RegionKind.EVALUATE), region(RegionKind.DERIVATIVE)])
        totals = comm_totals(log, "forkjoin")
        assert set(totals.nbytes) == set(totals.calls) == {
            CAT_BL_OPT, CAT_LIKELIHOOD, CAT_MODEL, CAT_TRAVERSAL}
        assert totals.calls == {CAT_BL_OPT: 2, CAT_LIKELIHOOD: 1, CAT_MODEL: 0,
                                CAT_TRAVERSAL: 1}

    def test_every_kind_communicates(self):
        """So the fork-join walk counts every region of a log."""
        log = EventLog([region(kind) for kind in RegionKind])
        assert comm_totals(log, "forkjoin").regions == len(log) == len(RegionKind)


class TestDecentralizedMapping:
    events = staticmethod(decentral.region_events)

    def test_no_descriptor_broadcasts_ever(self):
        # the paper's contribution in one assertion
        for kind in RegionKind:
            events = self.events(
                region(kind, p=1000, nbs=1000, ops=50.0)
            )
            assert all(e.collective == "allreduce" for e in events)
            assert all(e.category != CAT_TRAVERSAL for e in events)

    def test_silent_regions(self):
        for kind in (RegionKind.TRAVERSE, RegionKind.BRANCH_SETUP,
                     RegionKind.PARAM_ALPHA, RegionKind.PARAM_GTR,
                     RegionKind.PSR_SCAN):
            assert self.events(region(kind)) == []

    def test_allreduce_sites(self):
        ev = self.events(region(RegionKind.EVALUATE, p=10))
        assert ev[0].nbytes == 80
        dv = self.events(region(RegionKind.DERIVATIVE, nbs=10))
        assert dv[0].nbytes == 160

    def test_communicating_regions_counts_only_allreduce_sites(self):
        log = EventLog(
            [region(RegionKind.TRAVERSE), region(RegionKind.EVALUATE)]
        )
        assert comm_totals(log, "decentralized").regions == 1
        assert comm_totals(log, "forkjoin").regions == 2

    def test_model_row_stays_without_psr(self):
        """A log with no PSR region keeps a zero ``model parameters`` row:
        the category set is the engine's, not the log's."""
        log = EventLog([region(RegionKind.EVALUATE), region(RegionKind.PARAM_ALPHA)])
        totals = comm_totals(log, "decentralized")
        assert totals.nbytes == {CAT_BL_OPT: 0.0, CAT_LIKELIHOOD: 80.0,
                                 CAT_MODEL: 0.0}
        assert totals.calls[CAT_MODEL] == 0


class TestPaperInequalities:
    """The paper's headline byte claims, on a synthetic region stream."""

    def _stream(self, p, nbs):
        log = EventLog()
        for _ in range(100):
            log.append(region(RegionKind.BRANCH_SETUP, p=p, nbs=nbs, ops=4.0))
            for _ in range(5):
                log.append(region(RegionKind.DERIVATIVE, p=p, nbs=nbs))
            log.append(region(RegionKind.EVALUATE, p=p, nbs=nbs, ops=4.0))
        for _ in range(10):
            log.append(region(RegionKind.PARAM_ALPHA, p=p, nbs=nbs))
        return log

    def test_decentralized_moves_far_fewer_bytes(self):
        log = self._stream(p=100, nbs=1)
        dc = sum(comm_totals(log, "decentralized").nbytes.values())
        assert dc < fj_bytes(log) / 10

    def test_traversal_dominates_forkjoin_with_joint_branches(self):
        log = self._stream(p=100, nbs=1)
        totals = comm_totals(log, "forkjoin").nbytes
        grand = sum(totals.values())
        assert totals[CAT_TRAVERSAL] / grand > 0.5

    def test_per_partition_branches_shift_bytes_to_bl_opt(self):
        joint = comm_totals(self._stream(p=100, nbs=1), "forkjoin").nbytes
        pp = comm_totals(self._stream(p=100, nbs=100), "forkjoin").nbytes
        share_joint = joint[CAT_BL_OPT] / sum(joint.values())
        share_pp = pp[CAT_BL_OPT] / sum(pp.values())
        assert share_pp > 5 * share_joint

    def test_bytes_grow_with_partition_count(self):
        assert fj_bytes(self._stream(1000, 1)) > 50 * fj_bytes(self._stream(10, 1))


class TestEventLog:
    def test_counting(self):
        log = EventLog([region(RegionKind.EVALUATE), region(RegionKind.EVALUATE),
                        region(RegionKind.DERIVATIVE)])
        assert log.count() == 3
        assert log.count(RegionKind.EVALUATE) == 2

    def test_validate_rejects_bad_vectors(self):
        bad = Region(kind=RegionKind.EVALUATE, n_partitions=3,
                     n_branch_sets=1, newview_ops=np.ones(2))
        log = EventLog([bad])
        with pytest.raises(Exception):
            log.validate()

    def test_ops_vector_scalar_expansion(self):
        r = region(RegionKind.TRAVERSE, p=4, ops=7.0)
        assert np.allclose(r.ops_vector(), 7.0)
        assert r.max_ops() == 7.0

    def test_kernel_ops_by_kind(self):
        from repro.par.ledger import OpKind

        assert OpKind.NEWVIEW in region(RegionKind.TRAVERSE).kernel_ops()
        assert OpKind.EVALUATE in region(RegionKind.EVALUATE).kernel_ops()
        assert OpKind.SUMTABLE in region(RegionKind.BRANCH_SETUP).kernel_ops()
        assert region(RegionKind.PARAM_ALPHA).kernel_ops() == {}
