"""Virtual-MPI layer: the Comm API, real multiprocessing backend,
lock-step simulation backend, collective cost models and machine specs."""

from repro.par.ledger import OpKind
from repro.par.comm import Comm, ReduceOp
from repro.par.seqcomm import SequentialComm
from repro.par.machine import MachineSpec, HITS_CLUSTER

__all__ = [
    "OpKind",
    "Comm",
    "ReduceOp",
    "SequentialComm",
    "MachineSpec",
    "HITS_CLUSTER",
]
