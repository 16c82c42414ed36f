"""Real multi-process communicator (the "actually parallel" backend).

``run_mpi(n, fn, payloads)`` forks ``n`` OS processes connected by a full
mesh of pipes and runs ``fn(comm, payload)`` on every rank, mpiexec-style.
Collectives are implemented rank-rooted with **rank-ordered reductions**,
so results are bitwise deterministic — the reproducibility property the
paper requires of ``MPI_Allreduce`` (Section III-B).

This backend exists to prove the engines genuinely run distributed (the
consistency tests execute both schemes on 2–4 ranks and compare against
the sequential reference); the performance model uses the lock-step
simulator instead.

A receive is **spin, yield, then park**: it polls the pipe without
blocking for ``SPIN_BUDGET``, giving up the core between polls, and only
then sleeps in the bounded ``conn.poll``.  The paper's collectives are
tiny and frequent (8·p or 16·sets bytes, 10^5–10^6 per run) and its MPI
runtime busy-polls inside them; here a parked peer has to be woken by the
sender's write, and that wake-up, not the bytes, is what a collective on
this backend costs.  One waiting primitive (:meth:`MPComm._recv_raw`)
serves every collective, ``barrier``, ``agree``, ``shrink`` and the
fork-join worker's command wait, so all of them wait this way.

Fault tolerance (paper Section V, ULFM-style)
---------------------------------------------
Every receive is bounded: a peer whose pipe reaches EOF (process death)
or that stays silent past ``SPIN_BUDGET + detect_timeout`` raises
:class:`~repro.errors.RankFailureError` instead of hanging the mesh.
The rank that detects a failure inside a collective notifies the other
participants, so the whole mesh surfaces the failure within one
detection timeout.  Survivors then

* :meth:`MPComm.agree` on the failed set (the ``MPI_Comm_agree``
  analogue — a rank-ordered round coordinated by the lowest surviving
  rank), and
* :meth:`MPComm.shrink` the communicator (the ``MPI_Comm_shrink``
  analogue — survivors drain stale in-flight messages and renumber
  densely, preserving rank-ordered determinism).

Every process holds *only* its own pipe ends: both the parent and each
child close every inherited descriptor that is not theirs, which is what
makes EOF-based death detection possible in the first place (a forked
sibling holding a duplicate write end would keep the pipe alive forever).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from collections import defaultdict
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.errors import CommError, RankFailureError
from repro.par.comm import Comm, ReduceOp, apply_reduce, payload_nbytes

__all__ = [
    "MPComm",
    "run_mpi",
    "DEFAULT_DETECT_TIMEOUT",
    "DEPENDENT_WAIT_SCALE",
    "SPIN_BUDGET",
]

#: Default seconds a receive may stay silent before the peer is declared dead.
DEFAULT_DETECT_TIMEOUT = 60.0

#: Timeout multiplier for *dependent* waits — receives whose sender may
#: itself be blocked detecting a third rank (the bcast half of an
#: allreduce, a barrier release, agreement results, shrink marks).  Only
#: *direct* waits on a rank's own contribution use ``detect_timeout``
#: unscaled; everything downstream waits longer, so a genuine
#: detection's failure notice always outruns a dependent waiter's own
#: timeout.  Without the stagger, symmetric timeouts expire together and
#: a waiter one hop from the hung rank can misdeclare the *relaying*
#: rank dead — survivors then agree on disjoint failed sets and the
#: mesh partitions (observed live via the heartbeat channel:
#: ``repro infer --monitor`` showed rank 1 blaming rank 0 two
#: milliseconds before rank 0's own notice arrived).
DEPENDENT_WAIT_SCALE = 2.0

#: Seconds a receive polls without blocking, yielding the core between
#: polls, before it parks in ``conn.poll`` — about what parking costs on
#: the 2-vCPU VM this was set on: a send to a parked peer (the write that
#: wakes it) takes 250–400 µs there against 30–70 µs to one still
#: polling.  In situ (the e2e benchmark's ``genes_dec2``, 554 allreduces
#: per rank) a rank spends 0.20–0.61 s in its sends and receives when
#: every wait parks and 0.09–0.18 s with this budget, under which 1–50 of
#: the 554 receives still outlast it and park.  End to end, 500, 1000 and
#: 2000 µs read the same; 0 / 100 / 200 µs keep none / little / most of
#: the gain.  A longer wait is a real one (imbalance, a hung or dead
#: peer) and is slept through.  The ``sched_yield`` is why no guard on
#: core count is needed: with more ranks than cores the waiter hands its
#: core to the rank it waits for (4 ranks on 2 cores: 1.47 → 1.31 s
#: decentralized, 1.44 → 1.17 s fork-join, against always parking).
#: Table and recipe: docs/PERFORMANCE_MODEL.md, "What a collective costs".
SPIN_BUDGET = 500e-6

_FAILURE = "__rank_failure__"
_AGREE_REQ = "__agree_req__"
_AGREE_RESULT = "__agree_result__"
_SHRINK_MARK = "__shrink_mark__"
_BARRIER = "__barrier__"


def _is_ctrl(msg: Any, kind: str) -> bool:
    return isinstance(msg, tuple) and len(msg) == 2 and msg[0] == kind


class MPComm(Comm):
    """Mesh-of-pipes communicator for one rank.

    ``world`` maps this communicator's ranks back to the ranks of the
    original (pre-:meth:`shrink`) communicator, for reporting.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        conns: dict[int, Any],
        detect_timeout: float | None = DEFAULT_DETECT_TIMEOUT,
        world: tuple[int, ...] | None = None,
    ) -> None:
        self._rank = rank
        self._size = size
        self._conns = conns
        self._detect_timeout = detect_timeout
        self._world = tuple(world) if world is not None else tuple(range(size))
        self.bytes_by_tag: dict[str, int] = defaultdict(int)
        self.calls_by_tag: dict[str, int] = defaultdict(int)
        #: Called with the failed ranks' *world* numbers when this rank
        #: shrinks past them.  ``run_mpi`` hooks this so the parent can
        #: reap hung processes the mesh has agreed to exclude, instead of
        #: waiting out their silence.
        self.on_failure: Callable[[tuple[int, ...]], None] | None = None

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def world_rank(self, rank: int) -> int:
        """Original (pre-shrink) rank number of ``rank``."""
        return self._world[rank]

    def world_ranks(self, ranks) -> tuple[int, ...]:
        return tuple(sorted(self._world[int(r)] for r in ranks))

    def _account(self, obj: Any, tag: str) -> None:
        self.bytes_by_tag[tag] += payload_nbytes(obj)
        self.calls_by_tag[tag] += 1

    # -- failure-aware primitives ----------------------------------------- #
    def _recv_raw(self, source: int, intercept: bool = True,
                  timeout_scale: float = 1.0) -> Any:
        """Receive from ``source`` with death/silence detection.

        Polls without blocking for ``SPIN_BUDGET`` (yielding the core
        between polls), then parks.  Raises :class:`RankFailureError` on
        pipe EOF and on OS-level pipe errors in either phase, on silence
        past the budget plus ``detect_timeout * timeout_scale``, and
        (when ``intercept``) on an incoming peer failure notice.
        Dependent waits pass ``timeout_scale=DEPENDENT_WAIT_SCALE`` so a
        direct detection one hop away is always relayed (as a failure
        notice on this very pipe) before this wait gives up.
        """
        conn = self._conns[source]
        try:
            # replicheck: ignore[R004] -- the clock decides how long a receive waits before parking, never what it returns; reduction order stays a pure function of (size, rank)
            spin_until = time.monotonic() + SPIN_BUDGET
            # replicheck: ignore[R004] -- same wait-length-only clock: expiry moves the wait from polling to the park below, nothing else
            while not conn.poll(0) and time.monotonic() < spin_until:
                os.sched_yield()
            if self._detect_timeout is not None and not conn.poll(
                self._detect_timeout * timeout_scale
            ):
                raise RankFailureError(
                    {source},
                    f"rank {source} (world {self._world[source]}) silent for "
                    f"{self._detect_timeout * timeout_scale:.1f}s",
                )
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            raise RankFailureError(
                {source},
                f"lost connection to rank {source} "
                f"(world {self._world[source]}): {exc!r}",
            ) from exc
        if intercept and _is_ctrl(msg, _FAILURE):
            raise RankFailureError(msg[1], "peer reported rank failure")
        return msg

    def _send_raw(self, dest: int, obj: Any) -> None:
        try:
            self._conns[dest].send(obj)
        except (BrokenPipeError, OSError) as exc:
            raise RankFailureError(
                {dest},
                f"cannot send to rank {dest} "
                f"(world {self._world[dest]}): {exc!r}",
            ) from exc

    def _abort_collective(self, failed) -> None:
        """Notify every presumed-alive peer of ``failed``, then raise.

        This is what turns one rank's local detection into a mesh-wide
        event: peers blocked waiting on *us* (e.g. for the broadcast half
        of an allreduce) receive the notice instead of data and raise in
        turn.
        """
        failed = {int(r) for r in failed}
        for r in range(self._size):
            if r == self._rank or r in failed:
                continue
            try:
                self._conns[r].send((_FAILURE, tuple(sorted(failed))))
            except OSError:
                failed.add(r)
        raise RankFailureError(failed)

    # -- point to point -------------------------------------------------- #
    def send(self, obj: Any, dest: int, tag: str = "generic") -> None:
        if dest == self._rank:
            raise CommError("send to self")
        self._account(obj, tag)
        self._send_raw(dest, obj)

    def recv(self, source: int, tag: str = "generic") -> Any:
        if source == self._rank:
            raise CommError("recv from self")
        return self._recv_raw(source)

    # -- collectives ------------------------------------------------------ #
    def bcast(self, obj: Any, root: int = 0, tag: str = "generic") -> Any:
        # replicheck: ignore[R003] -- collective implementation: root/non-root asymmetry IS the bcast protocol, matched by construction
        if self._rank == root:
            self._account(obj, tag)
            try:
                for r in range(self._size):
                    if r != root:
                        self._send_raw(r, obj)
            except RankFailureError as exc:
                self._abort_collective(exc.failed_ranks)
            return obj
        # dependent wait: the root may be mid-detection of another rank
        return self._recv_raw(root, timeout_scale=DEPENDENT_WAIT_SCALE)

    def reduce(
        self, obj: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0,
        tag: str = "generic",
    ) -> Any:
        # replicheck: ignore[R003] -- collective implementation: root gathers, leaves send; the asymmetric arms are the two halves of one reduce
        if self._rank == root:
            contributions = []
            try:
                for r in range(self._size):
                    contributions.append(
                        obj if r == root else self._recv_raw(r)
                    )
            except RankFailureError as exc:
                self._abort_collective(exc.failed_ranks)
            self._account(obj, tag)
            return apply_reduce(op, contributions)
        self._account(obj, tag)
        self._send_raw(root, obj)
        return None

    def allreduce(self, obj: Any, op: ReduceOp = ReduceOp.SUM, tag: str = "generic") -> Any:
        result = self.reduce(obj, op, root=0, tag=tag)
        return self.bcast(result, root=0, tag=tag)

    def barrier(self, tag: str = "generic") -> None:
        self.calls_by_tag[tag] += 1
        if self._rank == 0:
            try:
                for r in range(1, self._size):
                    self._recv_raw(r)
                for r in range(1, self._size):
                    self._send_raw(r, (_BARRIER,))
            except RankFailureError as exc:
                self._abort_collective(exc.failed_ranks)
        else:
            self._send_raw(0, (_BARRIER,))
            # dependent wait: rank 0 may be mid-detection of another rank
            self._recv_raw(0, timeout_scale=DEPENDENT_WAIT_SCALE)

    def gather(self, obj: Any, root: int = 0, tag: str = "generic") -> list[Any] | None:
        if self._rank == root:
            out = []
            try:
                for r in range(self._size):
                    out.append(obj if r == root else self._recv_raw(r))
            except RankFailureError as exc:
                self._abort_collective(exc.failed_ranks)
            return out
        self._account(obj, tag)
        self._send_raw(root, obj)
        return None

    def scatter(self, objs: list[Any] | None, root: int = 0, tag: str = "generic") -> Any:
        # replicheck: ignore[R003] -- collective implementation: root sends one share per rank, non-roots receive; asymmetry is the scatter protocol
        if self._rank == root:
            if objs is None or len(objs) != self._size:
                raise CommError("scatter needs one element per rank")
            try:
                for r in range(self._size):
                    if r != root:
                        self._account(objs[r], tag)
                        self._send_raw(r, objs[r])
            except RankFailureError as exc:
                self._abort_collective(exc.failed_ranks)
            return objs[root]
        # dependent wait: the root may be mid-detection of another rank
        return self._recv_raw(root, timeout_scale=DEPENDENT_WAIT_SCALE)

    # -- ULFM-style recovery ---------------------------------------------- #
    def _recv_ctrl(self, source: int, want: str, known: set[int]) -> set[int]:
        """Receive a typed control message, discarding stale in-flight
        data (aborted-collective contributions, duplicate failure
        notices) that may precede it on the FIFO pipe.

        Control waits are always dependent waits: the peer may still be
        inside its own (scaled) detection window, or collecting
        agreement contributions from a rank it has not yet declared
        dead, before it can send us anything."""
        while True:
            msg = self._recv_raw(source, intercept=False,
                                 timeout_scale=DEPENDENT_WAIT_SCALE)
            if _is_ctrl(msg, want):
                return {int(r) for r in msg[1]}
            if _is_ctrl(msg, _FAILURE):
                known.update(int(r) for r in msg[1])
                continue
            # anything else is stale data from an aborted collective

    def agree(self, failed) -> frozenset[int]:
        """Agree with the other survivors on the set of failed ranks.

        The ``MPI_Comm_agree`` analogue: the lowest presumed-surviving
        rank coordinates, unions every survivor's locally-detected failed
        set (a survivor that stays silent past the detection timeout is
        itself added), and distributes the result.  If the coordinator
        dies mid-agreement the round restarts under the next survivor.
        """
        known = {int(r) for r in failed}
        known.discard(self._rank)
        while True:
            survivors = [r for r in range(self._size) if r not in known]
            if not survivors:  # pragma: no cover - defensive
                raise CommError("agreement failed: no surviving ranks")
            if survivors == [self._rank]:
                return frozenset(known)
            coord = survivors[0]
            try:
                if self._rank == coord:
                    for r in survivors[1:]:
                        if r in known:
                            continue
                        try:
                            known |= self._recv_ctrl(r, _AGREE_REQ, known)
                        except RankFailureError as exc:
                            known.update(int(x) for x in exc.failed_ranks)
                    known.discard(self._rank)
                    out = tuple(sorted(known))
                    for r in range(self._size):
                        if r == self._rank or r in known:
                            continue
                        try:
                            self._conns[r].send((_AGREE_RESULT, out))
                        except OSError:
                            # died after contributing; the shrink drain
                            # (or the next collective) will surface it
                            pass
                    return frozenset(known)
                self._send_raw(coord, (_AGREE_REQ, tuple(sorted(known))))
                return frozenset(self._recv_ctrl(coord, _AGREE_RESULT, known))
            except RankFailureError as exc:
                known.update(int(r) for r in exc.failed_ranks)
                known.discard(self._rank)

    def shrink(self, failed) -> "MPComm":
        """Return a densely renumbered communicator over the survivors.

        The ``MPI_Comm_shrink`` analogue.  Survivors exchange a shrink
        mark and drain every pairwise pipe up to it, flushing stale
        messages of the aborted collective, so the new communicator
        starts clean; survivor order is preserved, keeping rank-ordered
        reductions bitwise deterministic.  Byte/call accounting carries
        over.  A survivor dying mid-shrink raises
        :class:`RankFailureError`; callers should re-agree and retry.
        """
        failed = {int(r) for r in failed}
        if self._rank in failed:
            raise CommError("cannot shrink: own rank is in the failed set")
        if not failed:
            return self
        survivors = [r for r in range(self._size) if r not in failed]
        mark = (_SHRINK_MARK, tuple(sorted(failed)))
        for r in survivors:
            if r != self._rank:
                self._send_raw(r, mark)
        for r in survivors:
            if r == self._rank:
                continue
            while True:
                # dependent wait: the peer may still be finishing its
                # own agreement round before it sends the mark
                msg = self._recv_raw(r, intercept=False,
                                     timeout_scale=DEPENDENT_WAIT_SCALE)
                if _is_ctrl(msg, _SHRINK_MARK):
                    break
        for r in sorted(failed):
            conn = self._conns.pop(r, None)
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already gone
                    pass
        new_conns = {
            new_r: self._conns[old_r]
            for new_r, old_r in enumerate(survivors)
            if old_r != self._rank
        }
        shrunk = MPComm(
            survivors.index(self._rank),
            len(survivors),
            new_conns,
            detect_timeout=self._detect_timeout,
            world=tuple(self._world[r] for r in survivors),
        )
        # accounting continues across the failure, in the same dicts
        shrunk.bytes_by_tag = self.bytes_by_tag
        shrunk.calls_by_tag = self.calls_by_tag
        shrunk.on_failure = self.on_failure
        if self.on_failure is not None:
            try:
                self.on_failure(tuple(self._world[r] for r in sorted(failed)))
            except OSError:  # pragma: no cover - parent gone
                pass
        return shrunk


def _child(
    rank: int,
    size: int,
    all_ends: dict[int, dict[int, Any]],
    result_pipes: list,
    fn: Callable,
    payload: Any,
    detect_timeout: float | None,
) -> None:
    # Close every inherited descriptor that is not ours: without this a
    # dead sibling's pipes would be held open by our duplicate fds and
    # its peers (and the parent) would never observe EOF.
    for q, peer_conns in all_ends.items():
        if q == rank:
            continue
        for conn in peer_conns.values():
            conn.close()
    for q, (recv_end, send_end) in enumerate(result_pipes):
        recv_end.close()
        if q != rank:
            send_end.close()
    result_conn = result_pipes[rank][1]
    comm = MPComm(rank, size, all_ends[rank], detect_timeout=detect_timeout)
    comm.on_failure = lambda world_failed: result_conn.send(
        ("failure_notice", world_failed, {})
    )
    try:
        result = fn(comm, payload)
        result_conn.send(("ok", result, dict(comm.bytes_by_tag)))
    except RankFailureError as exc:
        result_conn.send(("failed", tuple(sorted(exc.failed_ranks)), {}))
    except BaseException:
        result_conn.send(("error", traceback.format_exc(), {}))
    finally:
        result_conn.close()


def run_mpi(
    n_ranks: int,
    fn: Callable[[Comm, Any], Any],
    payloads: list[Any] | None = None,
    timeout: float = 600.0,
    detect_timeout: float | None = None,
    allow_failures: bool = False,
    forward_sigterm: bool = False,
) -> list[Any]:
    """Run ``fn(comm, payloads[rank])`` on ``n_ranks`` forked processes.

    Returns the per-rank results in rank order.  Any rank raising makes
    the whole call raise :class:`CommError` with the child traceback.

    ``detect_timeout`` bounds how long any in-mesh receive may wait on a
    silent peer before raising :class:`RankFailureError` (defaults to
    ``min(60, timeout)``).  A rank dying without reporting raises
    :class:`RankFailureError` naming the dead ranks — unless
    ``allow_failures`` is set, in which case dead ranks simply yield
    ``None`` results (the mode the fault-tolerant launchers use: the
    survivors' results carry the recovery story).

    ``forward_sigterm`` makes the launching process relay a ``SIGTERM``
    it receives to every live rank (and keep reaping results) instead of
    dying and orphaning the mesh — the parent half of cooperative
    cancellation (see :mod:`repro.engines.cancel`).  Only effective when
    called from the main thread, which owns signal handling.
    """
    if n_ranks < 1:
        raise CommError("need at least one rank")
    if payloads is None:
        payloads = [None] * n_ranks
    if len(payloads) != n_ranks:
        raise CommError("one payload per rank required")
    if n_ranks == 1:
        from repro.engines.cancel import install_sigterm_flag, restore_sigterm
        from repro.par.seqcomm import SequentialComm

        prev = install_sigterm_flag() if forward_sigterm else None
        try:
            return [fn(SequentialComm(), payloads[0])]
        finally:
            if forward_sigterm:
                restore_sigterm(prev)
    if detect_timeout is None:
        detect_timeout = min(DEFAULT_DETECT_TIMEOUT, timeout)

    ctx = mp.get_context("fork")
    # full mesh of duplex pipes
    ends: dict[int, dict[int, Any]] = {r: {} for r in range(n_ranks)}
    for i in range(n_ranks):
        for j in range(i + 1, n_ranks):
            a, b = ctx.Pipe(duplex=True)
            ends[i][j] = a
            ends[j][i] = b
    result_pipes = [ctx.Pipe(duplex=False) for _ in range(n_ranks)]
    procs = []
    for r in range(n_ranks):
        proc = ctx.Process(
            target=_child,
            args=(r, n_ranks, ends, result_pipes, fn, payloads[r],
                  detect_timeout),
        )
        proc.start()
        procs.append(proc)
    # Drop the parent's copies of every child-side descriptor so that a
    # rank's death closes its pipes for good (EOF-based detection).
    for r in range(n_ranks):
        for conn in ends[r].values():
            conn.close()
        result_pipes[r][1].close()

    results: list[Any] = [None] * n_ranks
    errors: list[str] = []
    failed: set[int] = set()
    pending = set(range(n_ranks))
    prev_sigterm: Any = None
    sigterm_installed = False
    if forward_sigterm and threading.current_thread() is threading.main_thread():
        def _relay(signum: int, frame: Any) -> None:
            # Relay only — the ranks stop cooperatively at the next
            # iteration boundary and report results; the parent keeps
            # reaping.  Dead procs are skipped (ESRCH races are benign).
            for proc in procs:
                if proc.is_alive() and proc.pid:
                    try:
                        os.kill(proc.pid, signal.SIGTERM)
                    except OSError:  # pragma: no cover - reaped mid-loop
                        pass

        prev_sigterm = signal.signal(signal.SIGTERM, _relay)
        sigterm_installed = True
        from repro.engines.cancel import cancel_requested

        if cancel_requested():
            # a SIGTERM landed before the relay existed (caught by an
            # earlier flag handler, e.g. the CLI's); the ranks forked
            # after the flag was set inherited it, but a signal arriving
            # between fork and here did not — deliver it once now
            _relay(signal.SIGTERM, None)
    try:
        # Wait on every pending rank's result pipe at once, so one rank's
        # early crash surfaces immediately instead of deadlocking its
        # peers until the timeout.
        # replicheck: ignore[R004] -- run_mpi is the parent orchestrator, not a replica; failure detection is intentionally time-based
        deadline = time.monotonic() + timeout
        # replicheck: ignore[R004] -- parent-side liveness tracking, not replica control flow
        last_progress = time.monotonic()
        while pending:
            waiting = sorted(pending)
            ready = wait([result_pipes[r][0] for r in waiting], 0.05)
            progressed = bool(ready)
            for r in waiting:
                recv_end = result_pipes[r][0]
                if recv_end not in ready:
                    continue
                try:
                    status, value, _bytes = recv_end.recv()
                except (EOFError, OSError):
                    # the rank died without reporting
                    failed.add(r)
                    pending.discard(r)
                    continue
                if status == "failure_notice":
                    # survivors agreed these ranks are out of the
                    # mesh; reap hung ones instead of waiting out
                    # their silence (r itself still owes a result)
                    for x in value:
                        x = int(x)
                        failed.add(x)
                        if x in pending and procs[x].is_alive():
                            procs[x].terminate()
                    continue
                pending.discard(r)
                if status == "ok":
                    results[r] = value
                elif status == "failed":
                    # a survivor aborted because of dead peers
                    failed.update(int(x) for x in value)
                else:
                    errors.append(f"rank {r}:\n{value}")
            # replicheck: ignore[R004] -- parent-side hang detection deadline, not replica control flow
            now = time.monotonic()
            if progressed:
                last_progress = now
            if errors:
                break  # peers of a crashed rank may hang; bail out now
            if failed and now - last_progress > (
                (1.0 + DEPENDENT_WAIT_SCALE) * detect_timeout + 5.0
            ):
                # a failure happened and nothing has moved for a full
                # detection window (direct wait plus the scaled
                # dependent wait a relayed detection may add): whatever
                # is left is wedged
                failed.update(pending)
                break
            if now > deadline:
                if failed:
                    failed.update(pending)
                else:
                    errors.append(
                        f"ranks {sorted(pending)}: timeout after {timeout}s"
                    )
                break
    finally:
        if sigterm_installed:
            signal.signal(signal.SIGTERM, prev_sigterm)
        # A hung or aborted mesh cannot be joined politely: terminate
        # whatever is still alive first, then reap, then close our pipe
        # ends so nothing leaks across tests.
        if errors or pending or failed:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - terminate() refused
                proc.kill()
                proc.join()
        for r in range(n_ranks):
            try:
                result_pipes[r][0].close()
            except OSError:  # pragma: no cover
                pass
    if errors:
        raise CommError("distributed run failed:\n" + "\n".join(errors))
    if failed and not allow_failures:
        raise RankFailureError(
            failed, f"rank(s) {sorted(failed)} failed during distributed run"
        )
    return results
