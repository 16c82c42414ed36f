"""Runtime replica sanitizer: cross-rank collective-consistency checks.

:class:`ReplicaSanitizer` is the dynamic complement to the replicheck
static analyzer (:mod:`repro.analysis`).  An
:class:`~repro.par.comm.Interceptor` on any communicator, it prepends
every collective with a small control round that cross-checks what each
rank *thinks* it is doing:

1. each rank builds a record of the impending call — call index, verb,
   Table-I ``tag``, reduce op, root, a structural payload signature
   (shape/dtype, never values: allreduce *contributions* legitimately
   differ per rank, only their shapes must agree), the hash of the
   previous collective's rank-symmetric result, and the application
   call site;
2. the records are gathered at rank 0 (tag ``__sanitize__``) and a
   verdict is broadcast back — on the base communicator, so no other
   interceptor sees or counts the control round;
3. on a mismatch *every* rank raises
   :class:`~repro.errors.ReplicaDivergenceError` naming the first
   diverging collective and the minority ranks — *before* entering the
   real collective, where the divergence would otherwise surface as a
   value drift or a deadlock-then-timeout at rank 512.

Scope and limits:

* Built for the **decentralized** engine, whose replicas are symmetric
  by construction.  The fork-join scheme is intentionally asymmetric
  (master broadcasts Table-I-tagged commands, workers post
  ``tag="command"`` receives), so sanitizing it would only report its
  design.
* ``send``/``recv`` and the recovery verbs ``agree``/``shrink`` pass
  through unchecked: point-to-point traffic and failure recovery are
  legitimately rank-asymmetric.
* If replicas diverge so far that one rank stops issuing collectives
  entirely, the check's own gather blocks until the communicator's
  failure detection trips — the sanitizer turns value divergence and
  sequence mismatches into immediate errors, but cannot conjure a
  missing peer.

Fault-tolerance interaction: the check rounds use the same
failure-aware primitives as the payload collectives, so a rank death
during a check surfaces as the usual
:class:`~repro.errors.RankFailureError` and recovery proceeds.  A
shrink restarts the call counter and the result hash — survivors may
have been torn out of adjacent collectives, so the pre-failure chain
must not poison the first post-recovery check.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any, Callable

import numpy as np

from repro.errors import RankFailureError, ReplicaDivergenceError
from repro.par.comm import Comm, CommCall, Interceptor

__all__ = ["ReplicaSanitizer", "SANITIZE_TAG"]

#: Tag carried by the sanitizer's own control rounds — visible in
#: ``bytes_by_tag``/``calls_by_tag`` so its overhead is accountable (and
#: so tests can assert it is absent when sanitizing is off).
SANITIZE_TAG = "__sanitize__"

#: Sentinel prev-result hash after launch/shrink and for verbs whose
#: result is legitimately rank-asymmetric (reduce/gather return None on
#: non-root ranks).
_NO_HASH = "-"

# Record fields compared across ranks.  The call site is deliberately
# reported but NOT compared: identical code on every rank means it only
# adds context, and line numbers must not decide divergence.
_COMPARED = ("index", "verb", "tag", "op", "root", "sig", "prev")

# Checked verb -> (payload signature compared?, result rank-symmetric?).
# A bcast/scatter payload exists on the root only, so its signature is not
# compared; reduce/gather/scatter results differ per rank by design, so
# they do not chain into the next check.  ``send``/``recv`` are absent:
# point-to-point traffic is legitimately rank-asymmetric.
_CHECKED = {
    "bcast": (False, True),
    "reduce": (True, False),
    "allreduce": (True, True),
    "barrier": (True, True),
    "gather": (True, False),
    "scatter": (False, False),
}


def _stable_hash(obj: Any) -> str:
    # imported where it hashes: hashlib maps OpenSSL's libcrypto, which an
    # unsanitized rank has no use for
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj: Any) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, np.ndarray):
        h.update(b"A")
        h.update(str(obj.dtype).encode())
        h.update(str(obj.shape).encode())
        h.update(obj.tobytes())
    elif isinstance(obj, (bool, int, float, str, bytes,
                          np.floating, np.integer)):
        h.update(repr(obj).encode())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"D%d" % len(obj))
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        h.update(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _payload_sig(obj: Any, depth: int = 0) -> str:
    """Structural signature: shapes and dtypes, never values."""
    if obj is None:
        return "none"
    if isinstance(obj, np.ndarray):
        return f"ndarray[{obj.dtype.str}]{tuple(obj.shape)}"
    if isinstance(obj, (bool, np.bool_)):
        return "bool"
    if isinstance(obj, (int, np.integer)):
        return "int"
    if isinstance(obj, (float, np.floating)):
        return "float"
    if isinstance(obj, str):
        return f"str[{len(obj)}]"
    if isinstance(obj, (list, tuple)):
        kind = type(obj).__name__
        if depth >= 2 or len(obj) > 8:
            return f"{kind}[{len(obj)}]"
        inner = ",".join(_payload_sig(x, depth + 1) for x in obj)
        return f"{kind}({inner})"
    if isinstance(obj, dict):
        return f"dict[{len(obj)}]"
    return type(obj).__name__


def _call_site() -> str:
    """First stack frame outside the communication/observability layers."""
    frame = sys._getframe(1)
    while frame is not None:
        fname = frame.f_code.co_filename.replace("\\", "/")
        if not any(part in fname for part in ("/par/", "/obs/")):
            return f"{fname}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _format_records(records: list[dict]) -> str:
    lines = []
    for rank, rec in enumerate(records):
        lines.append(
            f"  rank {rank}: #{rec['index']} {rec['verb']}"
            f"(tag={rec['tag']!r}, op={rec['op']}, root={rec['root']}, "
            f"payload={rec['sig']}, prev_result={rec['prev']}) "
            f"at {rec['site']}"
        )
    return "\n".join(lines)


class ReplicaSanitizer(Interceptor):
    """Cross-rank collective-consistency check before every collective."""

    def __init__(self) -> None:
        self.calls = 0
        self._prev = _NO_HASH

    def after_shrink(self) -> "ReplicaSanitizer":
        """Shrink rule: a fresh call counter and result chain (survivors
        may have been torn out of *adjacent* collectives, so neither is
        comparable across the failure)."""
        return ReplicaSanitizer()

    def _check(self, base: Comm, c: CommCall, sig: str) -> None:
        """One control round on ``base`` for the impending call ``c``."""
        index = self.calls
        self.calls += 1
        if base.size <= 1:
            return
        record = {
            "index": index,
            "verb": c.verb,
            "tag": c.tag,
            "op": c.op.value if c.op is not None else "-",
            "root": c.root if c.root is not None else "-",
            "sig": sig,
            "prev": self._prev,
            "site": _call_site(),
        }
        records = base.gather(record, root=0, tag=SANITIZE_TAG)
        verdict = None
        if base.rank == 0:
            keys = [tuple(r[k] for k in _COMPARED) for r in records]
            if len(set(keys)) > 1:
                counts: dict[tuple, int] = {}
                for key in keys:
                    counts[key] = counts.get(key, 0) + 1
                majority = max(counts, key=lambda k: counts[k])
                verdict = {
                    "index": index,
                    "diverging": [r for r, key in enumerate(keys)
                                  if key != majority],
                    "details": _format_records(records),
                }
        verdict = base.bcast(verdict, root=0, tag=SANITIZE_TAG)
        if verdict is not None:
            raise ReplicaDivergenceError(
                call_index=verdict["index"],
                diverging_ranks=verdict["diverging"],
                details=verdict["details"],
            )

    def call(self, base: Comm, c: CommCall, proceed: Callable[[], Any]) -> Any:
        """Check, run the payload collective, and chain a rank-symmetric
        result into the next check via its hash."""
        if c.verb not in _CHECKED:
            return proceed()
        compare_sig, symmetric_result = _CHECKED[c.verb]
        try:
            self._check(base, c, _payload_sig(c.obj) if compare_sig else _NO_HASH)
            result = proceed()
        except RankFailureError:
            # A peer died mid-check or mid-collective; the chain up to
            # here is unusable for the survivors' next comparison.
            self._prev = _NO_HASH
            raise
        self._prev = _stable_hash(result) if symmetric_result else _NO_HASH
        return result
