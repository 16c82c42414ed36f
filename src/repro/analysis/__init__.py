"""replicheck — determinism & collective-consistency static analysis.

The decentralized engine relies on every rank running a bitwise-
identical replica of the tree search (PAPER.md).  This package checks,
at review time, the code properties that invariant depends on; the
runtime complement is :class:`repro.par.sanitize.ReplicaSanitizer`.

Entry points: :func:`analyze_paths` (CLI + tests) and the rule catalog
in :data:`RULES`.  See ``docs/DETERMINISM.md`` for the rule catalog
with examples and the suppression/baseline workflow.
"""

from repro.analysis.engine import (
    PROFILES,
    RULES,
    AnalysisReport,
    analyze_paths,
    analyze_source,
)
from repro.analysis.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Baseline,
    Finding,
    Suppression,
    parse_suppressions,
)
from repro.analysis.sarif import to_sarif

__all__ = [
    "RULES",
    "PROFILES",
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
    "Baseline",
    "Finding",
    "Suppression",
    "parse_suppressions",
    "to_sarif",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
]
