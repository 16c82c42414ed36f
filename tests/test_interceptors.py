"""InterceptingComm: interceptor order and shrink carry-over as contract.

The launcher stacks trace → fault → heartbeat → sanitize on one wrapper
(:meth:`repro.engines.runtime.RankRuntime.open`).  These tests pin, on a
recording base communicator and with nothing forked, what that order
means per verb, that a firing fault precedes the heartbeat's enter (the
asymmetry ``obs.monitor.diagnose`` keys on), and what each interceptor
carries across a shrink.
"""

from collections import defaultdict
from contextlib import contextmanager

import pytest

from repro.obs.heartbeat import HeartbeatInterceptor, HeartbeatState
from repro.obs.instrument import TraceInterceptor
from repro.obs.tracer import Tracer
from repro.par.comm import Comm, InterceptingComm, ReduceOp
from repro.par.faultcomm import FaultInjector, FaultPlan, FaultSpec
from repro.par.sanitize import SANITIZE_TAG, ReplicaSanitizer

N_CALLS = 3


class RecordingBase(Comm):
    """Rank 0 of a pretend 2-rank mesh whose peer always agrees: logs
    every verb it is asked to run, with what ``probe()`` sees then."""

    def __init__(self, log, probe, world=(0, 1)):
        self.log = log
        self.probe = probe
        self.world = tuple(world)
        self.bytes_by_tag = defaultdict(int)
        self.calls_by_tag = defaultdict(int)

    rank = 0

    @property
    def size(self):
        return len(self.world)

    def world_rank(self, rank):
        return self.world[rank]

    def _record(self, verb, tag, result):
        self.calls_by_tag[tag] += 1
        self.log.append(("base", verb, tag) + self.probe())
        return result

    def bcast(self, obj, root=0, tag="generic"):
        return self._record("bcast", tag, obj)

    def reduce(self, obj, op=ReduceOp.SUM, root=0, tag="generic"):
        return self._record("reduce", tag, obj)

    def allreduce(self, obj, op=ReduceOp.SUM, tag="generic"):
        return self._record("allreduce", tag, obj)

    def barrier(self, tag="generic"):
        return self._record("barrier", tag, None)

    def gather(self, obj, root=0, tag="generic"):
        return self._record("gather", tag, [obj] * self.size)

    def scatter(self, objs, root=0, tag="generic"):
        return self._record("scatter", tag, objs[0])

    def send(self, obj, dest, tag="generic"):
        return self._record("send", tag, None)

    def recv(self, source, tag="generic"):
        return self._record("recv", tag, "received")

    def agree(self, failed):
        self.log.append(("base", "agree", "") + self.probe())
        return frozenset(failed)

    def shrink(self, failed):
        self.log.append(("base", "shrink", "") + self.probe())
        return RecordingBase(
            self.log, self.probe,
            world=[w for r, w in enumerate(self.world) if r not in failed])


class LoggingTracer(Tracer):
    """A real tracer that also logs when each span opens and closes."""

    def __init__(self, log, probe):
        super().__init__(rank=0)
        self._log, self._probe = log, probe

    @contextmanager
    def span(self, name, **attrs):
        self._log.append(("span open", name) + self._probe())
        with super().span(name, **attrs) as span:
            yield span
        self._log.append(("span close", name) + self._probe())


@pytest.fixture
def stack():
    """All four interceptors, in launcher order, over a recording base.
    The fault plan 'fires' (into the log) at every call, so the log shows
    where the injector's tick falls."""
    log = []
    state = HeartbeatState(0)

    def probe():
        return (state.calls, state.in_collective)

    plan = FaultPlan(specs=tuple(
        [FaultSpec(0, k, "slow") for k in range(1, N_CALLS + 1)]
        + [FaultSpec(0, k, "slow", "recovery") for k in (1, 2)]))
    fault = FaultInjector(
        plan, 0, on_fire=lambda mode, _: log.append(("fire",) + probe()))
    tracer = LoggingTracer(log, probe)
    sanitizer = ReplicaSanitizer()
    base = RecordingBase(log, probe)
    comm = InterceptingComm(base, [
        TraceInterceptor(tracer), fault,
        HeartbeatInterceptor(state), sanitizer])
    return comm, base, log, state, fault, sanitizer, tracer


CALLS = {
    "bcast": lambda c: c.bcast("x", root=0, tag="t"),
    "reduce": lambda c: c.reduce(1.0, ReduceOp.SUM, root=0, tag="t"),
    "allreduce": lambda c: c.allreduce(1.0, ReduceOp.SUM, tag="t"),
    "barrier": lambda c: c.barrier(tag="t"),
    "gather": lambda c: c.gather(1, root=0, tag="t"),
    "scatter": lambda c: c.scatter(["a", "b"], root=0, tag="t"),
    "send": lambda c: c.send("x", dest=1, tag="t"),
    "recv": lambda c: c.recv(source=1, tag="t"),
}
COLLECTIVES = ("bcast", "reduce", "allreduce", "barrier", "gather", "scatter")


@pytest.mark.parametrize("verb", sorted(CALLS))
def test_order_per_verb(stack, verb):
    comm, base, log, state, fault, sanitizer, _ = stack
    for k in range(1, N_CALLS + 1):
        del log[:]
        CALLS[verb](comm)
        before, inside, after = (k - 1, False), (k, True), (k, False)
        control = ([("base", "gather", SANITIZE_TAG) + inside,
                    ("base", "bcast", SANITIZE_TAG) + inside]
                   if verb in COLLECTIVES else [])
        assert log == [
            ("span open", verb) + before,
            # the fault ticks (and would kill) before the heartbeat enters
            ("fire",) + before,
            # heartbeat entered; the sanitizer's round runs on the base
            *control,
            ("base", verb, "t") + inside,
            # heartbeat exited before the span closes
            ("span close", verb) + after,
        ]
        # the control rounds are counted by neither fault nor heartbeat
        assert fault.calls == state.calls == k
    assert sanitizer.calls == (N_CALLS if verb in COLLECTIVES else 0)
    assert base.calls_by_tag["t"] == N_CALLS
    assert base.calls_by_tag.get(SANITIZE_TAG, 0) == (
        2 * N_CALLS if verb in COLLECTIVES else 0)
    assert comm.calls_by_tag is base.calls_by_tag


def test_results_and_identity_pass_through(stack):
    comm, base = stack[0], stack[1]
    assert (comm.rank, comm.size) == (0, 2)
    assert comm.world_ranks([1, 0]) == (0, 1)
    assert comm.allreduce(2.5, tag="t") == 2.5
    assert comm.gather(7, tag="t") == [7, 7]
    assert comm.scatter(["a", "b"], tag="t") == "a"
    assert comm.recv(source=1, tag="t") == "received"
    assert comm.bytes_by_tag is base.bytes_by_tag


def test_shrink_rules(stack):
    comm, base, log, state, fault, sanitizer, tracer = stack
    comm.allreduce(1.0, tag="t")
    comm.allreduce(1.0, tag="t")
    assert sanitizer.calls == 2 and sanitizer._prev != "-"
    del log[:]

    assert comm.agree({1}) == frozenset({1})
    shrunk = comm.shrink({1})

    # recovery verbs run in the same order; the recovery-scoped fault
    # fires inside the recovery span, before the base is touched
    assert [e[:-2] for e in log] == [
        ("span open", "agree"), ("fire",), ("base", "agree", ""),
        ("span close", "agree"),
        ("span open", "shrink"), ("fire",), ("base", "shrink", ""),
        ("span close", "shrink"),
    ]
    assert isinstance(shrunk, InterceptingComm)
    assert shrunk.base is not base and shrunk.size == 1
    trace, fault2, heartbeat, sanitizer2 = shrunk.interceptors

    # fault: plan identity and both counters survive
    assert fault2 is fault
    assert (fault.plan_rank, fault.calls, fault.recovery_calls) == (0, 2, 2)
    # sanitize: fresh counter and hash chain
    assert isinstance(sanitizer2, ReplicaSanitizer)
    assert sanitizer2 is not sanitizer
    assert (sanitizer2.calls, sanitizer2._prev) == (0, "-")
    # heartbeat: the same state object, now naming the failed world rank
    assert heartbeat.state is state
    assert state.phase == "recover" and state.failed_ranks == (1,)
    # trace: same tracer, one span per recovery round
    assert trace.tracer is tracer
    recovery = [s for s in tracer.spans() if s.kind == "recovery"]
    assert [s.name for s in recovery] == ["agree", "shrink"]
    agree, shrink = recovery
    assert agree.attrs == {"suspected": [1], "agreed": [1]}
    assert shrink.attrs == {"failed_world": [1], "new_size": 1, "new_rank": 0}

    # post-resume collectives keep counting on the carried interceptors
    shrunk.allreduce(1.0, tag="t")
    assert (fault.calls, fault.recovery_calls, state.calls) == (3, 3, 3)
    assert sanitizer2.calls == 1 and sanitizer.calls == 2
    assert [s.name for s in tracer.spans() if s.kind == "comm"] == [
        "allreduce"] * 3
