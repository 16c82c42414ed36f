"""SARIF 2.1.0 export for replicheck findings.

GitHub code scanning ingests SARIF; emitting it lets CI annotate PR
diffs with findings instead of burying them in a job log.  Only the
subset of the format code scanning actually reads is produced: one run,
one tool driver with the rule catalog, one result per finding with a
physical location and the replicheck fingerprint as a partial
fingerprint (so code scanning tracks findings across commits).

Inline-suppressed findings are included with an ``inSource``
``suppressions`` entry — code scanning then shows them as closed
instead of flapping between present/absent as pragmas move.
"""

from __future__ import annotations

from repro.analysis.findings import Finding

__all__ = ["to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {"error": "error", "warning": "warning"}


def _result(finding: Finding, suppressed: bool) -> dict:
    result: dict = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {
            "text": finding.message + (
                f" (hint: {finding.hint})" if finding.hint else ""),
        },
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace("\\", "/"),
                },
                "region": {
                    "startLine": max(finding.line, 1),
                    "startColumn": finding.col + 1,
                },
            },
        }],
        "partialFingerprints": {
            "replicheck/v1": finding.fingerprint,
        },
    }
    if finding.snippet:
        result["locations"][0]["physicalLocation"]["region"]["snippet"] = {
            "text": finding.snippet,
        }
    if suppressed:
        result["suppressions"] = [{"kind": "inSource"}]
    return result


def to_sarif(report, rules: dict[str, str],
             tool_version: str = "2.0") -> dict:
    """Render an :class:`~repro.analysis.engine.AnalysisReport` as a
    SARIF 2.1.0 log object (a plain dict ready for ``json.dump``)."""
    results = [_result(f, False) for f in report.findings]
    results.extend(_result(f, True) for f in report.suppressed)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "replicheck",
                    "informationUri":
                        "https://example.invalid/repro/docs/DETERMINISM",
                    "version": tool_version,
                    "rules": [
                        {
                            "id": rule_id,
                            "name": rule_id,
                            "shortDescription": {"text": description},
                        }
                        for rule_id, description in sorted(rules.items())
                    ],
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }
