"""The kinds of likelihood kernel work.

The vocabulary the region log every backend keeps
(:class:`~repro.likelihood.backend.Region`), the cost model
(:mod:`repro.perf.costmodel`) and the machine specs share: a region says
how many invocations of each kind it implies, the cost model prices a
kind per (virtual) pattern·category unit.  A region names its kinds only
when priced, so a run never imports this package for them.
"""

from __future__ import annotations

import enum

__all__ = ["OpKind"]


class OpKind(enum.Enum):
    """Kinds of likelihood work, with distinct per-pattern costs."""

    #: one CLV update (Felsenstein pruning step) at one node
    NEWVIEW = "newview"
    #: log-likelihood evaluation at the virtual root
    EVALUATE = "evaluate"
    #: eigen-basis sumtable construction for a branch
    SUMTABLE = "sumtable"
    #: one Newton–Raphson derivative evaluation
    DERIVATIVE = "derivative"
    #: transition-matrix (P) computation for one branch
    PMATRIX = "pmatrix"
