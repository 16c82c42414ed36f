"""The replicheck driver: file discovery, rule dispatch and
suppression.

``analyze_paths`` is the single entry point used by both the CLI
(``repro lint``) and the test suite.  It returns an
:class:`AnalysisReport` that separates *new* findings (gate-relevant)
from suppressed ones, and also reports suppression hygiene (pragmas
without a justification, pragmas that no longer match any finding) so
exemptions cannot silently rot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import (
    build_project,
    module_name,
    run_collective_flow_rules,
)
from repro.analysis.concurrency import run_concurrency_rules
from repro.analysis.findings import (
    Finding,
    Suppression,
    assign_fingerprints,
    parse_suppressions,
)
from repro.analysis.rules import (
    ImportMap,
    NO_NAMES,
    run_syntax_rules,
    set_returning_functions,
)

__all__ = ["AnalysisReport", "analyze_paths", "RULES"]

#: Rule catalog: id -> one-line description (docs + ``repro lint --rules``).
RULES = {
    "R001": "unseeded or global-state RNG in a replica path",
    "R002": "iteration over an unordered container (set / dict-from-set / "
            "unsorted filesystem listing)",
    "R003": "collective under rank-dependent or exception-dependent "
            "branching or call chains (mismatched collective sequences)",
    "R004": "wall-clock read outside the observability layer",
    "R005": "float accumulation over an order-nondeterministic iterable",
    "R006": "collective issued (or reached via a call) while holding a "
            "lock — distributed deadlock if a peer rank needs the lock",
    "R007": "attribute of a lock-owning class written without the lock "
            "that protects it elsewhere",
    "R008": "inconsistent lock-acquisition order across functions "
            "(ABBA in-process deadlock)",
    "R009": "blocking call (child wait, recv/sleep without timeout, "
            "flock) while holding a lock",
    "R010": "durable manifest/checkpoint file written without the "
            "tmp+fsync+rename discipline",
    "R011": "non-async-signal-safe work (logging, I/O, locks, blocking "
            "calls) inside a signal handler",
}


def _is_obs_path(path: str) -> bool:
    """obs/ is exempt from R004 — the observability layer exists to read
    the clock, and timing there never feeds replica control flow."""
    norm = "/" + path.replace("\\", "/").lstrip("./") + "/"
    return "/obs/" in norm


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced."""

    findings: list[Finding] = field(default_factory=list)       # gate-relevant
    suppressed: list[Finding] = field(default_factory=list)
    unjustified_suppressions: list[tuple[str, Suppression]] = field(
        default_factory=list)
    unused_suppressions: list[tuple[str, Suppression]] = field(
        default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.parse_errors else 0

    def all_findings(self) -> list[Finding]:
        return sorted(
            self.findings + self.suppressed,
            key=lambda f: (f.path, f.line, f.col, f.rule),
        )

    def to_dict(self) -> dict:
        return {
            "version": 3,
            "files_scanned": self.files_scanned,
            "counts": {
                "new": len(self.findings),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "unjustified_suppressions": [
                {"path": p, "line": s.pragma_line,
                 "rules": sorted(s.rules)}
                for p, s in self.unjustified_suppressions
            ],
            "unused_suppressions": [
                {"path": p, "line": s.pragma_line,
                 "rules": sorted(s.rules)}
                for p, s in self.unused_suppressions
            ],
            "parse_errors": [
                {"path": p, "error": e} for p, e in self.parse_errors
            ],
        }


def _resolve_imported_set_fns(
    tree: ast.Module, index: dict[str, set[str]]
) -> frozenset[str]:
    """Local aliases of imported functions the project index says return
    sets.  Matching is by dotted-module suffix, so ``from
    repro.tree.distances import bipartitions`` finds the index entry for
    ``src.repro.tree.distances`` regardless of the scan root."""

    def lookup(module: str) -> set[str]:
        for mod, fns in index.items():
            if mod == module or mod.endswith("." + module):
                return fns
        return set()

    imports = ImportMap(tree)
    aliases: set[str] = set()
    for alias, (module, name) in imports.members.items():
        if name in lookup(module):
            aliases.add(alias)
    return frozenset(aliases)


def _discover(paths: list[str | Path],
              exclude: tuple[str, ...] = ()) -> list[Path]:
    def excluded(p: Path) -> bool:
        norm = str(p).replace("\\", "/")
        for e in exclude:
            e = e.replace("\\", "/").rstrip("/")
            if norm == e or norm.startswith(e + "/"):
                return True
        return False

    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(q for q in sorted(p.rglob("*.py"))
                       if not excluded(q))
        elif p.suffix == ".py" and not excluded(p):
            out.append(p)
    # de-duplicate, preserving order
    seen: set[Path] = set()
    uniq = []
    for p in out:
        rp = p.resolve()
        if rp not in seen:
            seen.add(rp)
            uniq.append(p)
    return uniq


def analyze_paths(
    paths: list[str | Path],
    select: frozenset[str] | None = None,
    exclude: tuple[str, ...] = (),
    order_safe: frozenset[str] = NO_NAMES,
) -> AnalysisReport:
    """Analyze files/directories and apply inline suppressions.

    ``select`` restricts the run to a rule-id set (default: every rule
    in :data:`RULES`).  ``exclude`` drops path prefixes from discovery
    (e.g. fixture directories that are intentionally violating).
    ``order_safe`` extends the order-safe consumer allowlist of R002
    for scan targets (like tests) with local order-insensitive helpers.

    The collective and concurrency rules run on a *project-wide* call
    graph (:mod:`repro.analysis.callgraph`), so their findings see
    through call chains across functions and modules.
    """
    active = frozenset(RULES) if select is None else frozenset(select)
    report = AnalysisReport()
    all_findings: list[Finding] = []
    per_file_suppressions: dict[str, list[Suppression]] = {}

    # Pass 1: parse everything and index set-returning function
    # signatures project-wide, so R002/R005 can see through calls like
    # `splits = bipartitions(tree)` across module boundaries.
    parsed: list[tuple[Path, str, ast.Module]] = []
    sig_index: dict[str, set[str]] = {}
    for path in _discover(paths, exclude):
        path_str = str(path)
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=path_str)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append((path_str, str(exc)))
            continue
        parsed.append((path, source, tree))
        fns = set_returning_functions(tree)
        if fns:
            sig_index[module_name(str(path))] = fns

    # Pass 2: per-file syntax rules + suppressions.
    for path, source, tree in parsed:
        path_str = str(path)
        findings = run_syntax_rules(
            tree, path_str, source.splitlines(),
            skip_r004=_is_obs_path(path_str),
            set_fns=_resolve_imported_set_fns(tree, sig_index),
            order_safe=order_safe,
        )
        report.files_scanned += 1
        all_findings.extend(findings)
        per_file_suppressions[path_str] = parse_suppressions(source)

    # Pass 3: project-wide call-graph rules (R003/R006 + R007–R011).
    if active.intersection(
            {"R003", "R006", "R007", "R008", "R009", "R010", "R011"}):
        project = build_project(
            (str(path), source, tree) for path, source, tree in parsed)
        all_findings.extend(run_collective_flow_rules(project))
        all_findings.extend(run_concurrency_rules(project))

    all_findings = [f for f in all_findings if f.rule in active]
    assign_fingerprints(all_findings)

    used: set[tuple[str, int]] = set()
    for f in sorted(all_findings, key=lambda f: (f.path, f.line, f.col)):
        suppression = next(
            (s for s in per_file_suppressions.get(f.path, ())
             if s.line == f.line and f.rule in s.rules),
            None,
        )
        if suppression is not None:
            used.add((f.path, suppression.pragma_line))
            report.suppressed.append(f)
        else:
            report.findings.append(f)

    for path_str, suppressions in per_file_suppressions.items():
        for s in suppressions:
            if not s.rules.intersection(active):
                continue   # unselected rules' pragmas are not this run's business
            if not s.justified:
                report.unjustified_suppressions.append((path_str, s))
            if (path_str, s.pragma_line) not in used:
                report.unused_suppressions.append((path_str, s))

    return report
