"""The virtual-MPI communicator interface.

A deliberately small subset of MPI, sufficient for both parallelization
schemes of the paper:

* fork-join (RAxML-Light) needs ``bcast`` + ``reduce`` (master-rooted);
* de-centralized (ExaML) needs ``allreduce`` (and a couple of point-to-point
  calls for the initial data distribution).

Every call takes a ``tag`` labelling the *purpose* of the message — the
categories of the paper's Table I — so backends can account communication
bytes per category exactly.

Reductions over float arrays are performed in **fixed rank order**.  The
paper stresses that ``MPI_Allreduce`` must yield bitwise-identical values
on every rank, otherwise the replicated search algorithms diverge; rank-
ordered summation gives us that property on every backend.

Cross-cutting checks on that stream (span tracing, fault injection,
heartbeats, the replica sanitizer) are :class:`Interceptor` objects driven
by the one wrapper, :class:`InterceptingComm`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import CommError

__all__ = [
    "ReduceOp",
    "Comm",
    "CommCall",
    "Interceptor",
    "InterceptingComm",
    "payload_nbytes",
]


class ReduceOp(enum.Enum):
    SUM = "sum"
    MAX = "max"
    MIN = "min"


def apply_reduce(op: ReduceOp, values: list[Any]) -> Any:
    """Combine per-rank contributions in rank order (deterministic)."""
    if not values:
        raise CommError("nothing to reduce")
    first = values[0]
    if isinstance(first, np.ndarray):
        acc = first.astype(np.float64, copy=True)
        for val in values[1:]:
            if op is ReduceOp.SUM:
                acc += val
            elif op is ReduceOp.MAX:
                np.maximum(acc, val, out=acc)
            else:
                np.minimum(acc, val, out=acc)
        return acc
    acc = first
    for val in values[1:]:
        if op is ReduceOp.SUM:
            acc = acc + val
        elif op is ReduceOp.MAX:
            acc = max(acc, val)
        else:
            acc = min(acc, val)
    return acc


def payload_nbytes(obj: Any) -> int:
    """Approximate on-wire size of a payload in bytes.

    NumPy arrays count their raw buffer; scalars count 8; structured
    payloads (tuples/lists/dicts) count the sum of their parts plus a
    small framing overhead — matching how the paper counts, e.g., an
    allreduce of three doubles as 24 bytes.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.floating, np.integer)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (tuple, list)):
        return 4 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 4 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    if hasattr(obj, "nbytes_wire"):
        return int(obj.nbytes_wire())
    # fallback: pickle size
    import pickle

    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class Comm:
    """Abstract communicator.  Ranks are ``0 .. size-1``."""

    #: Payload bytes / collective calls this rank issued per ``tag``.
    bytes_by_tag: dict[str, int]
    calls_by_tag: dict[str, int]

    @property
    def rank(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError

    def bcast(self, obj: Any, root: int = 0, tag: str = "generic") -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the object."""
        raise NotImplementedError

    def reduce(
        self, obj: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0,
        tag: str = "generic",
    ) -> Any:
        """Reduce to ``root``; non-root ranks return ``None``."""
        raise NotImplementedError

    def allreduce(
        self, obj: Any, op: ReduceOp = ReduceOp.SUM, tag: str = "generic"
    ) -> Any:
        """Reduce and distribute the result to all ranks."""
        raise NotImplementedError

    def barrier(self, tag: str = "generic") -> None:
        raise NotImplementedError

    def gather(self, obj: Any, root: int = 0, tag: str = "generic") -> list[Any] | None:
        """Gather per-rank objects at ``root`` (rank order)."""
        raise NotImplementedError

    def scatter(self, objs: list[Any] | None, root: int = 0, tag: str = "generic") -> Any:
        """Scatter a list (one element per rank) from ``root``."""
        raise NotImplementedError

    def send(self, obj: Any, dest: int, tag: str = "generic") -> None:
        raise NotImplementedError

    def recv(self, source: int, tag: str = "generic") -> Any:
        raise NotImplementedError

    # -- fault tolerance (ULFM-style; optional) ----------------------------- #
    # Communicators that cannot lose ranks (sequential, mocks) inherit the
    # identity behaviour; the multiprocess backend overrides all four.

    def world_rank(self, rank: int) -> int:
        """Map ``rank`` in this communicator to its original world rank."""
        return rank

    def world_ranks(self, ranks) -> tuple[int, ...]:
        """Map a set of ranks to original world ranks (sorted)."""
        return tuple(sorted(self.world_rank(int(r)) for r in ranks))

    def agree(self, failed) -> frozenset[int]:
        """Agree on the failed set across survivors (``MPI_Comm_agree``)."""
        return frozenset(int(r) for r in failed)

    def shrink(self, failed) -> "Comm":
        """Return a renumbered survivor communicator (``MPI_Comm_shrink``)."""
        raise CommError(
            f"{type(self).__name__} cannot shrink (no rank can fail)"
        )


# -- interception ------------------------------------------------------------ #


@dataclass(frozen=True)
class CommCall:
    """One verb as an :class:`Interceptor` sees it, before it runs.

    ``obj`` is the payload this rank contributes (``None`` for ``barrier``
    and ``recv``); ``op`` and ``root`` are ``None`` for verbs without one.
    """

    verb: str
    tag: str
    obj: Any = None
    op: ReduceOp | None = None
    root: int | None = None


class Interceptor:
    """One cross-cutting concern on a rank's collective stream.

    Every hook receives the *base* communicator (the real one under the
    wrapper) and ``proceed``, which runs the rest of the chain — the
    interceptors further in, then the base verb — and returns its result.
    A hook that sends messages of its own sends them on ``base``, so no
    other interceptor sees or counts them.
    """

    def call(self, base: Comm, c: CommCall, proceed: Callable[[], Any]) -> Any:
        """Around one of the eight verbs."""
        return proceed()

    def agree(self, base: Comm, failed, proceed: Callable[[], frozenset[int]]) -> frozenset[int]:
        """Around ``agree``; ``failed`` is in ``base``'s numbering."""
        return proceed()

    def shrink(self, base: Comm, failed, proceed: Callable[[], Comm]) -> Comm:
        """Around ``shrink``; ``proceed`` returns the shrunk base."""
        return proceed()

    def after_shrink(self) -> "Interceptor":
        """The interceptor that rides on the shrunk communicator: this one,
        state and all, unless a subclass must start afresh."""
        return self


class InterceptingComm(Comm):
    """The one communicator wrapper: ``base`` seen through ``interceptors``.

    The tuple is ordered outermost first, and the order is contract: the
    first interceptor's hook opens first and closes last around every
    verb, ``agree`` and ``shrink``.  Delivery order, reduction order and
    byte accounting are ``base``'s own; a shrink re-wraps the survivor
    communicator with each interceptor's :meth:`Interceptor.after_shrink`.
    """

    def __init__(self, base: Comm, interceptors: Sequence[Interceptor]) -> None:
        self.base = base
        self.interceptors = tuple(interceptors)
        # the same dict objects, so the wrapper reads what the base counts
        self.bytes_by_tag = base.bytes_by_tag
        self.calls_by_tag = base.calls_by_tag

    @property
    def rank(self) -> int:
        return self.base.rank

    @property
    def size(self) -> int:
        return self.base.size

    def world_rank(self, rank: int) -> int:
        return self.base.world_rank(rank)

    def _through(self, hook: str, subject: Any, innermost: Callable[[], Any]) -> Any:
        """Run ``innermost`` inside every interceptor's ``hook``."""
        proceed = innermost
        for interceptor in reversed(self.interceptors):
            proceed = partial(getattr(interceptor, hook), self.base, subject, proceed)
        return proceed()

    def _verb(self, c: CommCall, *args: Any) -> Any:
        return self._through("call", c, partial(getattr(self.base, c.verb), *args))

    def bcast(self, obj: Any, root: int = 0, tag: str = "generic") -> Any:
        return self._verb(CommCall("bcast", tag, obj, root=root), obj, root, tag)

    def reduce(
        self, obj: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0,
        tag: str = "generic",
    ) -> Any:
        return self._verb(CommCall("reduce", tag, obj, op, root), obj, op, root, tag)

    def allreduce(
        self, obj: Any, op: ReduceOp = ReduceOp.SUM, tag: str = "generic"
    ) -> Any:
        return self._verb(CommCall("allreduce", tag, obj, op), obj, op, tag)

    def barrier(self, tag: str = "generic") -> None:
        return self._verb(CommCall("barrier", tag), tag)

    def gather(self, obj: Any, root: int = 0, tag: str = "generic") -> list[Any] | None:
        return self._verb(CommCall("gather", tag, obj, root=root), obj, root, tag)

    def scatter(self, objs: list[Any] | None, root: int = 0, tag: str = "generic") -> Any:
        return self._verb(CommCall("scatter", tag, objs, root=root), objs, root, tag)

    def send(self, obj: Any, dest: int, tag: str = "generic") -> None:
        return self._verb(CommCall("send", tag, obj), obj, dest, tag)

    def recv(self, source: int, tag: str = "generic") -> Any:
        return self._verb(CommCall("recv", tag), source, tag)

    def agree(self, failed) -> frozenset[int]:
        return self._through("agree", failed, partial(self.base.agree, failed))

    def shrink(self, failed) -> "InterceptingComm":
        shrunk = self._through("shrink", failed, partial(self.base.shrink, failed))
        return InterceptingComm(
            shrunk, [i.after_shrink() for i in self.interceptors])
