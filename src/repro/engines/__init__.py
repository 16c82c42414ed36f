"""The paper's two parallelization schemes.

* :mod:`repro.engines.forkjoin` — the RAxML-Light scheme: communication
  mapping for the simulator plus a real master/worker implementation over
  a :class:`~repro.par.comm.Comm`;
* :mod:`repro.engines.decentral` — the ExaML scheme: communication mapping
  plus a real replicated implementation;
* :mod:`repro.engines.launch` — :func:`~repro.engines.launch.launch`, the
  one entry that runs either scheme on forked processes from a
  :class:`~repro.engines.launch.RunConfig`;
* :mod:`repro.engines.fault` — rank-failure recovery on top of the
  decentralized scheme (the paper's Section V future work).

Both engines execute *exactly the same* search, and every backend counts
the parallel regions it closes (:class:`Region`, :class:`EventLog`,
defined with the backend in :mod:`repro.likelihood.backend` and
re-exported here): the sequential program, each replica and the
fork-join master end with equal logs, and the engines differ only in
what each region communicates — which is precisely the paper's claim,
made executable.  So an engine, for pricing, is one row of
:data:`ENGINES`: its ``region_events`` and its Table-I categories
(:mod:`repro.perf.price` walks a log under it).
"""

from repro.likelihood.backend import EventLog, Region, RegionKind
from repro.engines import decentral, forkjoin

__all__ = [
    "Region",
    "RegionKind",
    "EventLog",
    "ENGINES",
]

#: ``RunConfig`` engine name → (region → collectives, Table-I categories).
ENGINES = {
    "decentralized": (decentral.region_events, decentral.CATEGORIES),
    "forkjoin": (forkjoin.region_events, forkjoin.CATEGORIES),
}
