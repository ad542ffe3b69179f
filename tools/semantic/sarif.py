"""SARIF 2.1.0 emitter shared by igs_semantic.py and igs_dataflow.py.

Both tools produce Finding-shaped objects (path, line, rule, message,
suppressed, baselined, level); this module owns the serialization so the
two SARIF artifacts stay structurally identical for CI upload.
"""

import json

SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def sarif_document(tool_name, findings, root, rule_descriptions,
                   rule_order=None):
    """Build the SARIF document dict.  Suppressed findings are omitted;
    baselined ones are emitted with suppression metadata so viewers show
    them greyed out rather than hiding the audit trail."""
    order = list(rule_order) if rule_order else sorted(rule_descriptions)
    rules = [{"id": rule,
              "shortDescription": {"text": rule_descriptions[rule]}}
             for rule in order]
    results = []
    for f in findings:
        if f.suppressed:
            continue
        res = {
            "ruleId": f.rule,
            "level": getattr(f, "level", "error"),
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": max(f.line, 1)},
                },
            }],
        }
        if getattr(f, "baselined", False):
            res["suppressions"] = [{"kind": "external",
                                    "justification": "audited baseline"}]
        results.append(res)
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "informationUri":
                    f"https://example.invalid/igstream/tools/{tool_name}",
                "rules": rules,
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file://" + root}},
            "results": results,
        }],
    }


def write_sarif(path, tool_name, findings, root, rule_descriptions,
                rule_order=None):
    doc = sarif_document(tool_name, findings, root, rule_descriptions,
                         rule_order)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return doc
