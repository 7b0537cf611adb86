"""SARIF 2.1.0 output for every analysis rule (REP001..REP104).

One reporter for every rule ``lint`` runs, so CI uploads a single
artifact and annotates PRs inline regardless of which pass produced a
finding.  :func:`to_sarif` builds the document; the tests compare it
with a committed golden document.

The document is minimal but complete: one ``run`` with a ``tool.driver``
carrying the full rule catalogue (id, shortDescription, fullDescription,
help), and one ``result`` per finding referencing its rule by id and
index with a physical location.  Paths are emitted as relative URIs,
which is what GitHub code scanning expects for inline annotation.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from .linter import Finding
from .rules import RULES

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA", "to_sarif", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

_TOOL_NAME = "repro-analysis"


def _rule_descriptor(rule_id: str) -> Dict:
    rule = RULES.get(rule_id)
    if rule is None:
        # REP000 (syntax error) and future IDs: a stub descriptor keeps
        # ruleIndex references valid.
        return {"id": rule_id,
                "shortDescription": {"text": rule_id}}
    return {
        "id": rule.id,
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": rule.rationale},
        "help": {"text": rule.rationale},
        "defaultConfiguration": {"level": "error"},
    }


def to_sarif(findings: Iterable[Finding]) -> Dict:
    """A SARIF 2.1.0 document (as a dict) for *findings*."""
    findings = list(findings)
    rule_ids: List[str] = sorted({f.rule for f in findings} | set(RULES))
    index_of = {rid: i for i, rid in enumerate(rule_ids)}
    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "ruleIndex": index_of[f.rule],
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(1, f.line),
                        "startColumn": max(1, f.col + 1),
                    },
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "rules": [_rule_descriptor(r) for r in rule_ids],
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file:///"},
            },
            "results": results,
        }],
    }


def render_sarif(findings: Iterable[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True)

