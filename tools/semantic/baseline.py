"""Shared audited baseline for the analysis tiers.

A baseline entry records a finding that was reviewed and accepted, with a
justification — the SARIF output keeps the finding (greyed out as an
external suppression) so the audit trail is never invisible.  Entries
match on (rule, path, message): line numbers drift with edits but the
messages are built from stable entity names, so a match survives
unrelated churn while any change to the finding itself (renamed symbol,
different backend attribution) un-baselines it.

Both tools that support baselining (igs_semantic, igs_dataflow) share
one file, tools/analysis_baseline.json:

    {
      "tools": {
        "igs_semantic": {"findings": [{"rule": ..., "path": ...,
                                       "message": ..., "justification":
                                       ...}, ...]},
        ...
      }
    }

`load(path, tool=...)` reads one tool's section; the legacy single-tool
layout (top-level "findings") is still accepted so older baseline files
keep working.  `write_template(path, findings, tool=...)` rewrites only
that tool's section and preserves the others byte-for-byte.

Stale entries — baselined findings the owning tool no longer produces —
become `stale-baseline` findings, mirroring the stale-suppression rule:
a suppression that outlives its finding is a latent hole in the gate.
"""

import json

from .model import Finding

_COMMENT = ("Audited findings accepted by review, one section per "
            "analysis tool. Every entry needs a justification; stale "
            "entries fail CI.")


def _read_doc(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def load(path, tool=None):
    """[(rule, path, message, justification)] from a baseline file.
    With `tool`, reads that tool's section of the shared layout; falls
    back to the legacy top-level "findings" list either way."""
    doc = _read_doc(path)
    if doc is None:
        return []
    raw = None
    if tool is not None and isinstance(doc.get("tools"), dict):
        raw = doc["tools"].get(tool, {}).get("findings")
    if raw is None:
        raw = doc.get("findings", [])
    entries = []
    for e in raw:
        entries.append((e["rule"], e["path"], e["message"],
                        e.get("justification", "")))
    return entries


def apply(findings, entries, baseline_rel):
    """Mark matching findings as baselined; return stale-baseline findings
    for entries that matched nothing."""
    used = [False] * len(entries)
    index = {}
    for i, (rule, path, message, _just) in enumerate(entries):
        index.setdefault((rule, path, message), []).append(i)
    for f in findings:
        hits = index.get((f.rule, f.path, f.message))
        if hits:
            f.baselined = True
            f.level = "note"
            used[hits[0]] = True
    stale = []
    for i, (rule, path, message, _just) in enumerate(entries):
        if not used[i]:
            f = Finding(baseline_rel, 1, "stale-baseline",
                        f"baseline entry for [{rule}] at {path} matches no "
                        f"current finding; remove it: {message!r}")
            stale.append(f)
    return stale


def write_template(path, findings, tool=None):
    """Serialize current unbaselined findings as a baseline skeleton
    (used by --update-baseline; justifications must be filled by hand).
    With `tool`, rewrites only that tool's section of the shared file."""
    entries = [
        {"rule": f.rule, "path": f.path, "message": f.message,
         "justification": "TODO: justify or fix"}
        for f in findings
        if not f.suppressed and not f.baselined
        and f.rule != "stale-baseline"
    ]
    if tool is None:
        doc = {"_comment": _COMMENT, "findings": entries}
    else:
        doc = _read_doc(path) or {}
        doc.setdefault("_comment", _COMMENT)
        doc.pop("findings", None)
        doc.setdefault("tools", {})
        doc["tools"][tool] = {"findings": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
