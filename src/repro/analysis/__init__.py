"""replicheck — determinism & collective-consistency static analysis.

The decentralized engine relies on every rank running a bitwise-
identical replica of the tree search (PAPER.md).  This package checks,
at review time, the code properties that invariant depends on; the
runtime complement is :class:`repro.par.sanitize.ReplicaSanitizer`.

Entry points: :func:`analyze_paths` (CLI + tests) and the rule catalog
in :data:`RULES`.  See ``docs/DETERMINISM.md`` for the rule catalog
with examples and the inline-suppression workflow.
"""

from repro.analysis.engine import (
    RULES,
    AnalysisReport,
    analyze_paths,
)
from repro.analysis.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    Suppression,
    parse_suppressions,
)
from repro.analysis.sarif import to_sarif

__all__ = [
    "RULES",
    "AnalysisReport",
    "analyze_paths",
    "Finding",
    "Suppression",
    "parse_suppressions",
    "to_sarif",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
]
