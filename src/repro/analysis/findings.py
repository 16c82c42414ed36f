"""Findings, suppressions and the committed baseline for replicheck.

A :class:`Finding` is one rule violation at one source location.  Its
*fingerprint* is content-addressed — rule id, file path and the
normalized source snippet (plus an occurrence index for repeated
identical snippets) — so baselines survive unrelated line-number churn.

Two suppression mechanisms exist:

* **inline** — ``# replicheck: ignore[R001] -- justification`` on the
  flagged line (or as a standalone comment on the line directly above).
  The justification after ``--`` is mandatory in spirit: replica-safety
  exemptions must say *why* the code is safe, and the analyzer reports
  justification-less suppressions so review can push back.
* **baseline** — a committed JSON file of tolerated fingerprints; the
  CLI gate fails only on findings *not* in the baseline, so the tool can
  land on a codebase with pre-existing debt and still block new debt.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.durable import durable_write

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Finding",
    "Suppression",
    "parse_suppressions",
    "Baseline",
    "assign_fingerprints",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_SUPPRESS_RE = re.compile(
    r"#\s*replicheck:\s*ignore\[([A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<why>.*?))?\s*$"
)


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    snippet: str = ""
    fingerprint: str = ""

    def format(self) -> str:
        out = (f"{self.path}:{self.line}:{self.col + 1}: "
               f"{self.rule} {self.severity}: {self.message}")
        if self.hint:
            out += f" (hint: {self.hint})"
        return out

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


def assign_fingerprints(findings: list[Finding]) -> None:
    """Content-address every finding in place.

    The digest covers (rule, path, normalized snippet, occurrence index)
    — deliberately *not* the line number, so reformatting elsewhere in
    the file does not invalidate a committed baseline.
    """
    seen: dict[tuple[str, str, str], int] = {}
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule)):
        key = (f.rule, f.path, " ".join(f.snippet.split()))
        index = seen.get(key, 0)
        seen[key] = index + 1
        h = hashlib.blake2b(digest_size=8)
        h.update("\x1f".join([key[0], key[1], key[2], str(index)]).encode())
        f.fingerprint = h.hexdigest()


@dataclass(frozen=True)
class Suppression:
    """An inline ``replicheck: ignore`` pragma."""

    line: int          # the source line the pragma exempts
    rules: frozenset[str]
    justification: str
    pragma_line: int   # where the comment itself sits

    @property
    def justified(self) -> bool:
        return bool(self.justification.strip())


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract inline suppressions from ``source``.

    A pragma at the end of a code line exempts that line; a pragma on a
    comment-only line exempts the next line (useful when the flagged
    statement is long).  Only real ``COMMENT`` tokens count — pragma
    text quoted inside strings or docstrings is documentation, not a
    suppression.
    """
    out: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _SUPPRESS_RE.search(tok.string)
        if not m:
            continue
        rules = frozenset(
            r.strip() for r in m.group(1).split(",") if r.strip()
        )
        lineno = tok.start[0]
        standalone = tok.line.lstrip().startswith("#")
        out.append(Suppression(
            line=lineno + 1 if standalone else lineno,
            rules=rules,
            justification=(m.group("why") or "").strip(),
            pragma_line=lineno,
        ))
    return out


@dataclass
class Baseline:
    """The committed set of tolerated finding fingerprints."""

    fingerprints: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        p = Path(path)
        if not p.exists():
            return cls()
        data = json.loads(p.read_text())
        entries = data.get("findings", [])
        return cls(fingerprints={e["fingerprint"]: e for e in entries})

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        return cls(fingerprints={
            f.fingerprint: {
                "fingerprint": f.fingerprint,
                "rule": f.rule,
                "path": f.path,
                "message": f.message,
            }
            for f in findings
        })

    def save(self, path: str | Path) -> None:
        entries = [self.fingerprints[k] for k in sorted(self.fingerprints)]
        payload = json.dumps(
            {"version": 1, "findings": entries}, indent=2) + "\n"
        # the baseline gates CI, so a torn write must not be able to pass
        # (or fail) a build
        durable_write(path, payload)

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint in self.fingerprints

    def __len__(self) -> int:
        return len(self.fingerprints)
