"""ReplicaSanitizer: runtime cross-rank collective-consistency checks.

The dynamic half of replicheck.  These tests fork real processes:

* a consistent 2-rank decentralized run passes every check and returns
  the same result as the unsanitized run;
* structurally divergent replicas (mismatched tag, verb, op, payload
  shape, previous-result hash) are caught at the *first* diverging
  collective, before the payload collective runs, on every rank;
* the acceptance scenario — one rank forced onto a different RNG stream
  builds a different starting topology, and the replicas' collective
  sequences drift apart during branch smoothing — raises
  :class:`ReplicaDivergenceError` naming the first diverging call;
* recovery from an injected rank failure (PR-1 machinery) does not trip
  the divergence check, on 2 ranks (survivor continues alone) and on 3
  (checks stay live across the shrink).
"""

import re

import numpy as np
import pytest

from repro.datasets import partitioned_workload
from repro.dist.distributions import split_local_data
from repro.engines.decentral import DecentralizedBackend
from repro.engines.launch import RunConfig, launch
from repro.errors import CommError, ReplicaDivergenceError
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.par.comm import InterceptingComm, ReduceOp
from repro.par.faultcomm import FaultPlan
from repro.par.mpcomm import run_mpi
from repro.par.sanitize import SANITIZE_TAG, ReplicaSanitizer
from repro.par.seqcomm import SequentialComm
from repro.search.search import SearchConfig, hill_climb
from repro.tree.newick import parse_newick, write_newick
from repro.tree.random_trees import random_topology


@pytest.fixture(scope="module")
def setup():
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    return lik.parts, lik.taxa, write_newick(wl.tree)


QUICK = SearchConfig(max_iterations=2, radius_max=2, model_opt=False)


def sanitizing(comm):
    """``comm`` under a fresh sanitizer, as ``sanitize=True`` installs it."""
    return InterceptingComm(comm, [ReplicaSanitizer()])


def first_diverging_call(message: str) -> int:
    m = re.search(r"collective #(\d+)", message)
    assert m, f"no diverging call named in: {message}"
    return int(m.group(1))


# --------------------------------------------------------------------- #
# consistent replicas pass
# --------------------------------------------------------------------- #

class TestConsistentRun:
    @pytest.fixture(scope="class")
    def sanitized_and_plain(self, setup):
        parts, taxa, newick = setup
        sane = launch(RunConfig("decentralized", parts, taxa, newick,
                                n_ranks=2, config=QUICK, sanitize=True))
        plain = launch(RunConfig("decentralized", parts, taxa, newick,
                                 n_ranks=2, config=QUICK))
        return sane, plain

    def test_sanitized_run_completes_with_identical_result(
        self, sanitized_and_plain
    ):
        sane, plain = sanitized_and_plain
        assert sane[0].logl == pytest.approx(plain[0].logl, abs=1e-12)
        assert sane[0].newick == plain[0].newick
        assert sane[0].logl == sane[1].logl

    def test_checks_actually_ran(self, sanitized_and_plain):
        sane, _ = sanitized_and_plain
        for res in sane:
            assert res.calls_by_tag.get(SANITIZE_TAG, 0) > 0

    def test_disabled_sanitizer_adds_nothing(self, sanitized_and_plain):
        """The <5%-overhead-when-disabled criterion, made structural:
        sanitize=False (the default) installs no wrapper and issues no
        control collectives at all, so the disabled overhead is zero
        extra calls — not just under 5%."""
        _, plain = sanitized_and_plain
        for res in plain:
            assert SANITIZE_TAG not in res.calls_by_tag
            assert SANITIZE_TAG not in res.bytes_by_tag

    def test_sequential_comm_passthrough(self):
        comm = sanitizing(SequentialComm())
        assert comm.allreduce(3.0, tag="x") == 3.0
        assert comm.bcast("obj", root=0) == "obj"
        assert comm.gather(1, root=0) == [1]
        assert comm.interceptors[0].calls == 3


# --------------------------------------------------------------------- #
# structural divergence is caught at the first diverging call
# --------------------------------------------------------------------- #

def _diverge_tag(comm, _):
    comm = sanitizing(comm)
    comm.allreduce(1.0, tag="model parameters")
    tag = ("model parameters" if comm.rank == 0
           else "traversal descriptor")
    comm.allreduce(2.0, tag=tag)
    return "unreachable"


def _diverge_verb(comm, _):
    comm = sanitizing(comm)
    comm.allreduce(1.0, tag="a")
    # replicheck: ignore[R003] -- this IS the bad pattern: the sanitizer under test must detect the verb mismatch
    if comm.rank == 0:
        comm.allreduce(2.0, tag="a")
    else:
        comm.barrier(tag="a")
    return "unreachable"


def _diverge_op(comm, _):
    comm = sanitizing(comm)
    op = ReduceOp.SUM if comm.rank == 0 else ReduceOp.MAX
    comm.allreduce(1.0, op=op, tag="a")
    return "unreachable"


def _diverge_shape(comm, _):
    comm = sanitizing(comm)
    payload = np.zeros(3 if comm.rank == 0 else 4)
    comm.allreduce(payload, tag="a")
    return "unreachable"


def _diverge_prev_result(comm, _):
    comm = sanitizing(comm)
    total = comm.allreduce(1.0, tag="a")
    if comm.rank == 1:
        total += 1e-9  # simulate a bitwise result drift on one rank
    comm.interceptors[0]._prev = __import__(
        "repro.par.sanitize", fromlist=["_stable_hash"]
    )._stable_hash(total)
    comm.allreduce(2.0, tag="a")
    return "unreachable"


class TestStructuralDivergence:
    @pytest.mark.parametrize("fn,expected_index", [
        (_diverge_tag, 1),
        (_diverge_verb, 1),
        (_diverge_op, 0),
        (_diverge_shape, 0),
        (_diverge_prev_result, 1),
    ], ids=["tag", "verb", "op", "shape", "prev-result-hash"])
    def test_divergence_detected_at_first_bad_call(self, fn, expected_index):
        with pytest.raises(CommError) as excinfo:
            run_mpi(2, fn, [None, None], timeout=60)
        message = str(excinfo.value)
        assert "ReplicaDivergenceError" in message
        assert first_diverging_call(message) == expected_index

    def test_every_rank_raises_not_just_one(self):
        # the verdict is broadcast: no rank proceeds into the payload
        # collective (where the mismatch would deadlock the mesh)
        with pytest.raises(CommError) as excinfo:
            run_mpi(2, _diverge_tag, [None, None], timeout=60)
        message = str(excinfo.value)
        assert message.count("ReplicaDivergenceError") >= 2

    def test_diverging_rank_named(self):
        with pytest.raises(CommError) as excinfo:
            run_mpi(2, _diverge_tag, [None, None], timeout=60)
        # per-rank records are listed so the report names both sides
        assert "rank 0:" in str(excinfo.value)
        assert "rank 1:" in str(excinfo.value)
        assert "traversal descriptor" in str(excinfo.value)


# --------------------------------------------------------------------- #
# the acceptance scenario: one rank on a different RNG stream
# --------------------------------------------------------------------- #

def _divergent_rng_stream(comm, payload):
    comm = sanitizing(comm)
    # rank 1 is forced onto a different RNG stream: its replica builds a
    # different starting topology, so its collective sequence drifts
    # from rank 0's during branch smoothing (Newton iteration counts
    # depend on the topology)
    newick = payload["newicks"][0 if comm.rank == 0 else 1]
    tree = parse_newick(newick, 1)
    local = split_local_data(payload["parts"], comm.rank, comm.size,
                             "cyclic")
    lik = PartitionedLikelihood(tree, local, payload["taxa"])
    backend = DecentralizedBackend(comm, lik)
    return hill_climb(backend, payload["config"]).logl


class TestDivergentRNGStream:
    def test_rng_stream_divergence_is_caught_and_named(self, setup):
        parts, taxa, _ = setup
        payload = {
            "parts": parts,
            "taxa": taxa,
            "newicks": [
                write_newick(random_topology(taxa, rng=1)),
                write_newick(random_topology(taxa, rng=2)),
            ],
            "config": QUICK,
        }
        with pytest.raises(CommError) as excinfo:
            run_mpi(2, _divergent_rng_stream, [payload, payload],
                    timeout=120)
        message = str(excinfo.value)
        assert "ReplicaDivergenceError" in message
        # the first diverging collective is named, with the app call site
        index = first_diverging_call(message)
        assert index > 0
        assert "decentral.py" in message


# --------------------------------------------------------------------- #
# fault-tolerance interaction: recovery must not trip the check
# --------------------------------------------------------------------- #

class TestSanitizeUnderFault:
    def test_two_ranks_recovery_does_not_trip_divergence_check(self, setup):
        parts, taxa, newick = setup
        plan = FaultPlan.kill(rank=1, at_call=25)
        results = launch(RunConfig("decentralized", parts, taxa, newick,
                                   n_ranks=2, config=QUICK, fault_plan=plan,
                                   detect_timeout=20.0, sanitize=True))
        assert results[1] is None
        survivor = results[0]
        assert survivor is not None
        assert survivor.recoveries == 1
        assert survivor.failed_ranks == (1,)
        assert np.isfinite(survivor.logl)

    def test_three_ranks_checks_stay_live_after_shrink(self, setup):
        parts, taxa, newick = setup
        plan = FaultPlan.kill(rank=2, at_call=25)
        results = launch(RunConfig("decentralized", parts, taxa, newick,
                                   n_ranks=3, config=QUICK, fault_plan=plan,
                                   detect_timeout=20.0, sanitize=True))
        survivors = [r for r in results if r is not None]
        assert len(survivors) == 2
        for s in survivors:
            assert s.recoveries == 1
            # post-shrink the 2 survivors keep cross-checking: far more
            # sanitize rounds than the ~25 pre-failure collectives
            assert s.calls_by_tag.get(SANITIZE_TAG, 0) > 50
        assert survivors[0].logl == survivors[1].logl
        assert survivors[0].newick == survivors[1].newick


class TestDivergenceErrorType:
    def test_not_a_rank_failure(self):
        # recovery must not try to shrink away a divergence
        from repro.errors import RankFailureError

        err = ReplicaDivergenceError(7, [1], "details")
        assert isinstance(err, CommError)
        assert not isinstance(err, RankFailureError)
        assert err.call_index == 7
        assert err.diverging_ranks == (1,)
        assert "collective #7" in str(err)
