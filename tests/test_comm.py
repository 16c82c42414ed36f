"""Virtual-MPI layer tests: payload sizing, deterministic reductions,
the sequential backend, and the real multiprocessing backend."""

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.errors import CommError, RankFailureError
from repro.par import mpcomm
from repro.par.comm import ReduceOp, apply_reduce, payload_nbytes
from repro.par.mpcomm import MPComm, run_mpi
from repro.par.seqcomm import SequentialComm


class TestPayloadBytes:
    def test_none_is_free(self):
        assert payload_nbytes(None) == 0

    def test_scalar_is_eight(self):
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(7) == 8

    def test_array_counts_buffer(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_paper_example(self):
        # "an MPI_Allreduce on 3 MPI_DOUBLE values is counted as 24 bytes"
        assert payload_nbytes(np.zeros(3)) == 24

    def test_nested_structures(self):
        assert payload_nbytes((1.0, 2.0)) == 4 + 16
        assert payload_nbytes({"a": np.zeros(2)}) == 4 + 1 + 16


class TestApplyReduce:
    def test_sum_arrays_in_rank_order(self):
        vals = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        out = apply_reduce(ReduceOp.SUM, vals)
        assert np.allclose(out, [4.0, 6.0])

    def test_max_min(self):
        assert apply_reduce(ReduceOp.MAX, [1.0, 5.0, 3.0]) == 5.0
        assert apply_reduce(ReduceOp.MIN, [1.0, 5.0, 3.0]) == 1.0

    def test_determinism(self):
        rng = np.random.default_rng(0)
        vals = [rng.random(100) for _ in range(8)]
        a = apply_reduce(ReduceOp.SUM, vals)
        b = apply_reduce(ReduceOp.SUM, vals)
        assert np.array_equal(a, b)  # bitwise

    def test_empty_rejected(self):
        with pytest.raises(CommError):
            apply_reduce(ReduceOp.SUM, [])


class TestSequentialComm:
    def test_identities(self):
        comm = SequentialComm()
        assert comm.size == 1 and comm.rank == 0
        assert comm.bcast(42, tag="x") == 42
        assert comm.allreduce(np.array([2.0]))[0] == 2.0
        assert comm.gather("a") == ["a"]
        assert comm.scatter(["only"]) == "only"

    def test_byte_accounting(self):
        comm = SequentialComm()
        comm.bcast(np.zeros(4), tag="model")
        comm.allreduce(np.zeros(2), tag="likelihood")
        assert comm.bytes_by_tag["model"] == 32
        assert comm.bytes_by_tag["likelihood"] == 16

    def test_p2p_rejected(self):
        comm = SequentialComm()
        with pytest.raises(CommError):
            comm.send(1, dest=0)


def _collective_worker(comm, payload):
    rank, size = comm.rank, comm.size
    out = {}
    out["bcast"] = comm.bcast("hello" if rank == 0 else None)
    out["allreduce"] = comm.allreduce(np.array([float(rank + 1)]))
    reduced = comm.reduce(np.array([float(rank)]), ReduceOp.SUM)
    out["reduce"] = None if reduced is None else float(reduced[0])
    comm.barrier()
    gathered = comm.gather(rank * 10)
    out["gather"] = gathered
    out["scatter"] = comm.scatter(
        [f"part{r}" for r in range(size)] if rank == 0 else None
    )
    if size > 1:
        if rank == 0:
            comm.send("ping", dest=1)
        elif rank == 1:
            out["p2p"] = comm.recv(source=0)
    return out


def _contribution(rank, i):
    return np.random.default_rng(1000 * rank + i).random(6)


def _sequence_worker(comm, rounds):
    """The four collectives the engines use, under the paper's tags."""
    out = []
    for i in range(rounds):
        x = _contribution(comm.rank, i)
        total = comm.allreduce(x, tag="likelihoods")
        head = comm.bcast(x if comm.rank == 0 else None, tag="traversal")
        peak = comm.reduce(x, ReduceOp.MAX, tag="branch_length")
        comm.barrier(tag="control")
        out.append((total, head, peak))
    return out, dict(comm.bytes_by_tag), dict(comm.calls_by_tag)


# ``_sequence_worker`` x200 at commit c445688 (root, every other rank);
# the same on 2 and on 3 ranks
PARENT_BYTES = (
    {"likelihoods": 19200, "traversal": 9600, "branch_length": 9600},
    {"likelihoods": 9600, "branch_length": 9600},
)
PARENT_CALLS = (
    {"likelihoods": 400, "traversal": 200, "branch_length": 200,
     "control": 200},
    {"likelihoods": 200, "branch_length": 200, "control": 200},
)


def _pair(detect_timeout, size=2):
    """Rank 0 of a mesh whose rank 1 is the returned raw pipe end."""
    ours, theirs = mp.get_context("fork").Pipe(duplex=True)
    return MPComm(0, size, {1: ours}, detect_timeout=detect_timeout), theirs


class TestMPComm:
    def test_collectives_three_ranks(self):
        results = run_mpi(3, _collective_worker)
        for r, res in enumerate(results):
            assert res["bcast"] == "hello"
            assert res["allreduce"][0] == 6.0  # 1+2+3
            assert res["scatter"] == f"part{r}"
        assert results[0]["reduce"] == 3.0  # 0+1+2 at root
        assert results[1]["reduce"] is None
        assert results[0]["gather"] == [0, 10, 20]
        assert results[1]["gather"] is None
        assert results[1]["p2p"] == "ping"

    def test_single_rank_uses_sequential(self):
        results = run_mpi(1, _collective_worker)
        assert results[0]["bcast"] == "hello"

    def test_child_error_propagates(self):
        def boom(comm, payload):
            if comm.rank == 1:
                raise ValueError("intentional")
            comm.barrier()

        with pytest.raises(CommError, match="intentional"):
            run_mpi(2, boom, timeout=30)

    def test_allreduce_bitwise_identical_across_ranks(self):
        def worker(comm, payload):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.random(50))

        results = run_mpi(3, worker)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])

    def test_payload_validation(self):
        with pytest.raises(CommError):
            run_mpi(2, _collective_worker, payloads=[1])
        with pytest.raises(CommError):
            run_mpi(0, _collective_worker)

    # -- spin, yield, then park: every failure arm of a receive still fires -- #
    def test_silent_peer_detected_at_the_timeout(self):
        comm, peer = _pair(detect_timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(RankFailureError, match="silent") as exc:
            comm.recv(1)
        waited = time.monotonic() - t0
        peer.close()
        assert exc.value.failed_ranks == frozenset({1})
        assert 0.3 <= waited <= mpcomm.SPIN_BUDGET + 0.3 + 0.5

    def test_peer_exit_inside_the_spin_window_raises_at_once(self, monkeypatch):
        # a window far longer than the test, so the EOF can only have been
        # seen by the non-blocking polls, not by the park that follows them
        monkeypatch.setattr(mpcomm, "SPIN_BUDGET", 20.0)
        comm, peer = _pair(detect_timeout=30.0)
        proc = mp.get_context("fork").Process(target=time.sleep, args=(0.1,))
        proc.start()
        peer.close()  # the forked peer now holds the only other end
        t0 = time.monotonic()
        with pytest.raises(RankFailureError, match="lost connection"):
            comm.recv(1)
        waited = time.monotonic() - t0
        proc.join(timeout=10)
        assert not proc.is_alive()
        assert waited < 5.0

    def test_failure_notice_inside_the_spin_window_is_intercepted(
        self, monkeypatch
    ):
        monkeypatch.setattr(mpcomm, "SPIN_BUDGET", 20.0)
        comm, peer = _pair(detect_timeout=30.0, size=3)
        timer = threading.Timer(
            0.1, peer.send, args=((mpcomm._FAILURE, (2,)),))
        timer.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(RankFailureError, match="peer reported") as exc:
                comm.recv(1)
        finally:
            timer.join(timeout=10)
            peer.close()
        assert exc.value.failed_ranks == frozenset({2})
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_four_ranks_on_one_core(self):
        """More ranks than cores: a waiting rank must hand its core to the
        rank it waits for (the yield between polls), and what comes back is
        still the rank-ordered reduction."""
        rounds = 200
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            t0 = time.monotonic()
            results = run_mpi(4, _sequence_worker, payloads=[rounds] * 4,
                              timeout=120)
            elapsed = time.monotonic() - t0
        finally:
            os.sched_setaffinity(0, allowed)
        assert elapsed < 60.0
        for i in range(rounds):
            xs = [_contribution(r, i) for r in range(4)]
            total = apply_reduce(ReduceOp.SUM, xs)
            peak = apply_reduce(ReduceOp.MAX, xs)
            for r, (out, _bytes, _calls) in enumerate(results):
                got_total, got_head, got_peak = out[i]
                assert np.array_equal(got_total, total)  # bitwise
                assert np.array_equal(got_head, xs[0])
                if r == 0:
                    assert np.array_equal(got_peak, peak)
                else:
                    assert got_peak is None

    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_accounting_is_the_parents(self, n_ranks):
        """Waiting differently moves no byte: per-tag totals of a fixed
        sequence, captured at the commit before the spin existed."""
        rounds = 200
        results = run_mpi(n_ranks, _sequence_worker,
                          payloads=[rounds] * n_ranks)
        for r, (_out, bytes_by_tag, calls_by_tag) in enumerate(results):
            assert bytes_by_tag == PARENT_BYTES[r > 0]
            assert calls_by_tag == PARENT_CALLS[r > 0]
