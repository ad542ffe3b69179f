#!/usr/bin/env python3
"""igs_semantic — declaration-level semantic analyzer for igstream.

Where igs_lint polices single lines and igs_analyzer walks the
quoted-include/call-graph structure, this tool parses real declarations
(two frontends: libclang via compile_commands.json when importable,
the ast_lite tokenizer/parser otherwise — see tools/semantic/) and runs
four passes:

  hot_path        template-aware hot-path escape analysis: the walk forks
                  per instantiated graph-store backend, prunes
                  `if constexpr (requires ...)` branches against each
                  backend's real member surface, and attributes findings
                  to the backend whose specialization reaches them; it
                  also flags shared-CAS telemetry members (Gauge::add /
                  watermark) on the hot path.
  lifetime        SnapshotView escape / invalidation / compute-stage
                  isolation (the pipeline's one-epoch-ahead invariant,
                  DESIGN.md §11).
  contracts       backend concept-surface conformance plus the
                  backend-capability matrix (--matrix): renaming
                  apply_coalesced away from a probed hook becomes a CI
                  failure instead of a silent slow-path fallback.
  telemetry_keys  telemetry key registry: uniqueness, naming scheme,
                  golden-JSON cross-check.

Findings honour igs_lint's `igs-lint: allow(<rule>)` pragmas, the shared
audited baseline (tools/analysis_baseline.json, section igs_semantic)
with stale-entry detection, and are emitted as SARIF 2.1.0 through the
emitter shared with igs_analyzer.py.  `--diff-base <ref>` keeps the exit
code scoped to files changed since the merge base (CI) while still
printing everything.  Parsing runs through the shared parallel/cached
front end (tools/semantic/parse_cache.py) also used by igs_dataflow.

Exit codes: 0 clean / only baselined, 1 findings, 2 usage error.
"""

import argparse
import json
import os
import subprocess
import sys
import time
import tomllib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from semantic import baseline, parse_cache, sarif  # noqa: E402
from semantic.parse_cache import discover_sources  # noqa: E402,F401
from semantic.passes import ALLOW_PRAGMA, contracts, hot_path, lifetime, \
    telemetry_keys  # noqa: E402

TOOL_NAME = "igs_semantic"

SEMANTIC_RULES = (
    "hot-path-alloc", "hot-path-block", "hot-path-throw",
    "hot-path-virtual", "hot-path-shared-cas",
    "snapshot-view-escape", "view-invalidated-use", "compute-reads-live",
    "backend-contract", "backend-capability", "contract-probe-dangling",
    "telemetry-key-naming", "telemetry-key-collision",
    "telemetry-key-stale-golden",
    "stale-baseline", "stale-suppression",
)

# Rules owned exclusively by this tool: an allow() pragma for one of
# these that suppresses nothing here is stale.  The other hot-path-* IDs
# are shared with igs_lint/igs_analyzer, so their pragmas are audited
# there.
EXCLUSIVE_RULES = frozenset(r for r in SEMANTIC_RULES
                            if (not r.startswith("hot-path-")
                                or r == "hot-path-shared-cas")
                            and not r.startswith("stale-"))

RULE_DESCRIPTIONS = {
    "hot-path-alloc":
        "Allocation reachable from a [hot_paths] root for the "
        "attributed backend instantiation.",
    "hot-path-block":
        "Blocking primitive reachable from a [hot_paths] root.",
    "hot-path-throw":
        "Throw expression reachable from a [hot_paths] root.",
    "hot-path-virtual":
        "Virtual dispatch on the hot path; kernels are devirtualized "
        "by construction.",
    "hot-path-shared-cas":
        "Gauge::add / Gauge::watermark (a CAS loop on one shared "
        "atomic<double>) reachable from a [hot_paths] root.",
    "snapshot-view-escape":
        "SnapshotView leaves its producing scope (member store, lambda "
        "capture, or return); views are only valid until the next "
        "publish().",
    "view-invalidated-use":
        "publish()/live-store mutation between a SnapshotView's "
        "creation and its last use.",
    "compute-reads-live":
        "Compute callable registered via set_compute touches mutable "
        "adjacency state instead of its SnapshotView argument.",
    "backend-contract":
        "GraphStore backend is missing a member of the engine's "
        "required or declared concept surface.",
    "backend-capability":
        "Backend defines a probed hook it does not declare in "
        "layers.toml (undeclared capability).",
    "contract-probe-dangling":
        "`requires`-probe probes a member name outside the declared "
        "probe list (renamed hook?).",
    "telemetry-key-naming":
        "Telemetry key violates the area.subsystem.name scheme.",
    "telemetry-key-collision":
        "Telemetry key registered at two different sites.",
    "telemetry-key-stale-golden":
        "Golden JSON references a telemetry key no source registers.",
    "stale-baseline":
        "Audited baseline entry matches no current finding.",
    "stale-suppression":
        "allow() pragma for a semantic-only rule suppresses nothing.",
}


def build_model(root, config, frontend="auto", compile_commands=None):
    """Delegates to the shared parallel/cached parsing front end."""
    return parse_cache.build_model(root, config, frontend,
                                   compile_commands)


def check_stale_pragmas(model, findings):
    """allow() pragmas for semantic-exclusive rules must suppress a
    finding; a pragma that outlives its finding is a hole in the gate."""
    suppressed = {(f.path, ln, f.rule)
                  for f in findings if f.suppressed
                  for ln in (f.line, f.line - 1)}
    for rel, fm in sorted(model.files.items()):
        for lineno, text in sorted(fm.comments.items()):
            m = ALLOW_PRAGMA.search(text)
            if not m or m.group(1) not in EXCLUSIVE_RULES:
                continue
            if (rel, lineno, m.group(1)) not in suppressed:
                from semantic.model import Finding
                findings.append(Finding(
                    rel, lineno, "stale-suppression",
                    f"allow({m.group(1)}) pragma suppresses no "
                    f"igs_semantic finding; remove it"))


def run_analysis(root, config, frontend="auto", compile_commands=None):
    model = build_model(root, config, frontend, compile_commands)
    findings = []
    timings = {}
    for name, pass_mod in (("hot_path", hot_path),
                           ("lifetime", lifetime),
                           ("contracts", contracts),
                           ("telemetry_keys", telemetry_keys)):
        t0 = time.monotonic()
        pass_mod.run(model, config, findings)
        timings[name] = round(time.monotonic() - t0, 3)
    check_stale_pragmas(model, findings)
    model.pass_timings = timings
    return model, findings


def changed_files(root, diff_base):
    try:
        base = subprocess.run(
            ["git", "merge-base", diff_base, "HEAD"], cwd=root,
            capture_output=True, text=True, check=True).stdout.strip()
        out = subprocess.run(
            ["git", "diff", "--name-only", base, "--"], cwd=root,
            capture_output=True, text=True, check=True).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    return {l.strip() for l in out.splitlines() if l.strip()}


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    default_root = os.path.dirname(here)
    ap = argparse.ArgumentParser(prog=TOOL_NAME,
                                 description=__doc__.splitlines()[1])
    ap.add_argument("--root", default=default_root)
    ap.add_argument("--layers",
                    default=os.path.join(here, "layers.toml"))
    ap.add_argument("--compile-commands",
                    default=os.path.join(default_root, "build",
                                         "compile_commands.json"))
    ap.add_argument("--frontend", choices=("auto", "clang", "lex"),
                    default="auto")
    ap.add_argument("--sarif", metavar="PATH")
    ap.add_argument("--matrix", metavar="PATH",
                    help="write the backend-capability matrix (JSON)")
    ap.add_argument("--baseline",
                    default=os.path.join(here, "analysis_baseline.json"))
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current findings "
                         "(justifications must be filled in by review)")
    ap.add_argument("--diff-base", metavar="REF",
                    help="only fail on findings in files changed since "
                         "the merge base with REF")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test(args.root)

    try:
        with open(args.layers, "rb") as f:
            config = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        print(f"igs_semantic: cannot load {args.layers}: {exc}",
              file=sys.stderr)
        return 2

    cc = args.compile_commands if args.frontend != "lex" else None
    model, findings = run_analysis(args.root, config, args.frontend, cc)

    if args.update_baseline:
        baseline.write_template(args.baseline, findings, tool=TOOL_NAME)
        print(f"igs_semantic: baseline section written to "
              f"{args.baseline}")
        return 0

    entries = baseline.load(args.baseline, tool=TOOL_NAME)
    baseline_rel = os.path.relpath(args.baseline, args.root)
    findings.extend(baseline.apply(findings, entries, baseline_rel))

    if args.matrix:
        matrix = dict(model.capability_matrix)
        matrix["backends"] = {
            k: {kk: vv for kk, vv in v.items() if kk != "found"}
            for k, v in matrix["backends"].items()}
        with open(args.matrix, "w", encoding="utf-8") as f:
            json.dump(matrix, f, indent=2)
            f.write("\n")
    if args.sarif:
        sarif.write_sarif(args.sarif, TOOL_NAME, findings, args.root,
                          RULE_DESCRIPTIONS, SEMANTIC_RULES)

    active = [f for f in findings if not f.suppressed and not f.baselined]
    gate = active
    if args.diff_base:
        changed = changed_files(args.root, args.diff_base)
        if changed is not None:
            gate = [f for f in active
                    if f.path in changed or f.rule.startswith("stale-")]
    for f in active:
        mark = "" if f in gate else " [outside diff scope]"
        print(f"{f}{mark}")
    for note in model.frontend_notes:
        print(f"igs_semantic: note: {note}", file=sys.stderr)

    n_files = len(model.files)
    ps = getattr(model, "parse_stats", {})
    pt = getattr(model, "pass_timings", {})
    timing = ", ".join([f"parse {ps.get('seconds', 0)}s "
                        f"({ps.get('jobs', 1)}j, "
                        f"{ps.get('cache_hits', 0)} cached)"] +
                       [f"{k} {v}s" for k, v in pt.items()])
    print(f"igs_semantic: {'FAIL' if gate else 'OK'} "
          f"({n_files} files, frontend={model.frontend}, "
          f"{len(active)} finding(s), {len(gate)} gating; {timing})")
    if not gate and active and args.diff_base:
        print("igs_semantic: non-gating findings above predate "
              "--diff-base; fix or baseline them in a follow-up")
    print()
    print(contracts.format_matrix(model.capability_matrix))
    return 1 if gate else 0


# --- self-test over tests/semantic_fixtures ------------------------------

# fixture name -> {rule: [expected (path, line) locations]}.  A line of 0
# matches any line (JSON goldens carry no positions).  `contains` lists
# substrings that must appear in some finding message of the fixture;
# `not_contains` substrings that must appear in none.  The check is
# exact: the fixture's SARIF results must be the expected locations, with
# no extra finding and no duplicate of an expected one.
SELF_TEST_EXPECTATIONS = {
    "leaked_view": {
        "rules": {"snapshot-view-escape": [("src/app/leak.cc", 14),
                                           ("src/app/leak.cc", 22)]},
    },
    "publish_under_view": {
        "rules": {"view-invalidated-use": [("src/app/pub.cc", 13)]},
    },
    "compute_reads_live": {
        "rules": {"compute-reads-live": [("src/app/compute.cc", 15)]},
    },
    "missing_capability": {
        "rules": {"backend-contract": [("src/graph/mini_store.h", 6)]},
    },
    "bad_telemetry_key": {
        "rules": {"telemetry-key-naming": [("src/app/tele.cc", 8)]},
    },
    "dup_telemetry_key": {
        "rules": {"telemetry-key-collision": [("src/app/tele2.cc", 12)]},
    },
    "stale_golden_key": {
        "rules": {"telemetry-key-stale-golden":
                  [("tests/golden/mini.json", 0)]},
    },
    "backend_hot_alloc": {
        "rules": {"hot-path-alloc": [("src/app/kernel.h", 12)]},
        "contains": ["[backend: FancyStore]"],
        "not_contains": ["[backend: PlainStore]"],
    },
    "hot_shared_cas": {
        "rules": {"hot-path-shared-cas": [("src/app/kernel.h", 8),
                                          ("src/app/kernel.h", 14)]},
    },
    "clean_ok": {"rules": {}},
}


def run_self_test(root):
    fixtures = os.path.join(root, "tests", "semantic_fixtures")
    if not os.path.isdir(fixtures):
        print(f"igs_semantic: fixture dir missing: {fixtures}",
              file=sys.stderr)
        return 2
    failures = []
    for name, exp in sorted(SELF_TEST_EXPECTATIONS.items()):
        fdir = os.path.join(fixtures, name)
        layers = os.path.join(fdir, "layers.toml")
        with open(layers, "rb") as f:
            config = tomllib.load(f)
        _model, findings = run_analysis(fdir, config, frontend="lex")
        doc = sarif.sarif_document(TOOL_NAME, findings, fdir,
                                   RULE_DESCRIPTIONS, SEMANTIC_RULES)
        got = []
        messages = []
        for res in doc["runs"][0]["results"]:
            loc = res["locations"][0]["physicalLocation"]
            got.append((res["ruleId"],
                        loc["artifactLocation"]["uri"],
                        loc["region"]["startLine"]))
            messages.append(res["message"]["text"])
        want = sorted((rule, path, line)
                      for rule, locs in exp["rules"].items()
                      for path, line in locs)
        wildcard = {(rule, path) for rule, path, line in want if line == 0}
        got = sorted((rule, path, 0 if (rule, path) in wildcard else line)
                     for rule, path, line in got)
        if got != want:
            failures.append(f"{name}: SARIF results {got} != expected "
                            f"{want}")
        for needle in exp.get("contains", ()):
            if not any(needle in m for m in messages):
                failures.append(f"{name}: no finding message contains "
                                f"{needle!r}")
        for needle in exp.get("not_contains", ()):
            if any(needle in m for m in messages):
                failures.append(f"{name}: a finding message contains "
                                f"forbidden {needle!r}")
    if failures:
        for f in failures:
            print(f"igs_semantic self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"igs_semantic self-test: OK "
          f"({len(SELF_TEST_EXPECTATIONS)} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
