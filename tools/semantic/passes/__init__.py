"""Analysis passes of the semantic analyzer.

Each pass module exposes `run(model, config, findings)` where `config`
is the parsed tools/layers.toml document and `findings` the shared list
of model.Finding.  Passes mark pragma-suppressed findings themselves
(shared allow() mechanism below) so the driver only applies the audited
baseline and serializes.
"""

import re

ALLOW_PRAGMA = re.compile(r"igs-lint:\s*allow\(([a-z-]+)")


def allowed(fm, rule, lineno):
    """True when the finding's line (or the line above) carries an
    `igs-lint: allow(<rule>)` pragma — the same mechanism igs_lint and
    igs_dataflow honour for their own rules."""
    for ln in (lineno, lineno - 1):
        m = ALLOW_PRAGMA.search(fm.comments.get(ln, ""))
        if m and m.group(1) == rule:
            return True
    return False


def check_stale_pragmas(files, findings, rules, tool):
    """An allow() pragma for one of `rules` (the calling tool's own; the
    stale-* rules themselves aside) must suppress one of its findings; a
    pragma that outlives its finding is a hole in the gate and becomes a
    stale-suppression finding."""
    from ..model import Finding
    suppressed = {(f.path, ln, f.rule)
                  for f in findings if f.suppressed
                  for ln in (f.line, f.line - 1)}
    for rel, fm in sorted(files.items()):
        for lineno, text in sorted(fm.comments.items()):
            m = ALLOW_PRAGMA.search(text)
            if m and m.group(1) in rules and \
                    not m.group(1).startswith("stale-") and \
                    (rel, lineno, m.group(1)) not in suppressed:
                findings.append(Finding(
                    rel, lineno, "stale-suppression",
                    f"allow({m.group(1)}) pragma suppresses no {tool} "
                    f"finding; remove it"))


def add(findings, fm, line, rule, message):
    from ..model import Finding
    f = Finding(fm.rel, line, rule, message)
    f.suppressed = allowed(fm, rule, line)
    findings.append(f)
    return f
