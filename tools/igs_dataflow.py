#!/usr/bin/env python3
"""igs_dataflow — interprocedural dataflow tier for igstream.

The third analysis tier (after igs_lint's per-line rules and
igs_semantic's declaration-level and structural passes): abstract
interpretation over the whole-program Model the semantic front
end parses (tools/semantic/, shared parallel parse + on-disk cache).
Three pass families (DESIGN.md §15):

  roles        epoch-ownership protocol verification: infer compute-role
               entry points (set_compute/attach registrations, the
               engine's in-flight std::thread spawn) and prove their
               call graphs never reach live-graph mutators or concrete
               live-backend read paths — per backend, via the explicit-
               instantiation binding.
  publication  atomic publication pairing: every release store needs an
               acquire-side observer of the same object (and vice
               versa); relaxed writes to publication objects are
               flagged.  Findings cite the check_matrix.sh TSan leg that
               exercises the same edge dynamically.
  intervals    value-range/narrowing analysis on the [hot_paths] roots:
               provable uint32 overflow (constant propagation) and
               unguarded wide->narrow casts (guard-macro facts).

Findings honour igs_lint's `igs-lint: allow(<rule>)` pragmas, the shared
audited baseline (tools/analysis_baseline.json, section igs_dataflow)
with stale-entry detection, and are emitted as SARIF 2.1.0 through the
emitter shared with igs_semantic.  `--diff-base <ref>`
scopes the exit code to files changed since the merge base (CI);
`--matrix` writes the inferred role-assignment matrix artifact.

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

from dataflow import intervals, publication, roles  # noqa: E402
from semantic import baseline, parse_cache, sarif  # noqa: E402
from semantic.passes import check_stale_pragmas  # noqa: E402

TOOL_NAME = "igs_dataflow"

DATAFLOW_RULES = (
    "compute-role-mutates-live", "compute-role-reads-live",
    "backend-role-coverage",
    "unpaired-release-store", "unpaired-acquire-load",
    "relaxed-publication-store",
    "narrowing-overflow", "unproven-narrowing",
    "stale-baseline", "stale-suppression",
)

RULE_DESCRIPTIONS = {
    "compute-role-mutates-live":
        "Compute-role call graph reaches a live-graph mutator; the "
        "compute round overlaps the next epoch's updates.",
    "compute-role-reads-live":
        "Compute-role call graph reads a concretely-typed live backend "
        "instead of SnapshotView/DirtySetView state.",
    "backend-role-coverage":
        "engine_backend=true backend is bound by no engine "
        "instantiation, so the role proof cannot cover it.",
    "unpaired-release-store":
        "Release-ordered atomic write with no acquire-side observer of "
        "the same object anywhere in src/.",
    "unpaired-acquire-load":
        "Acquire-ordered atomic read with no release-side producer of "
        "the same object anywhere in src/.",
    "relaxed-publication-store":
        "Relaxed atomic write to an object that carries acquire/release "
        "publication ordering elsewhere.",
    "narrowing-overflow":
        "static_cast to a narrow unsigned type provably overflows "
        "(constant propagation).",
    "unproven-narrowing":
        "Wide integer narrowed on a hot-path root file with no "
        "dominating guard-macro bound.",
    "stale-baseline":
        "Audited baseline entry matches no current finding.",
    "stale-suppression":
        "allow() pragma for a dataflow-only rule suppresses nothing.",
}


def run_analysis(root, config, frontend="auto", compile_commands=None,
                 model=None):
    if model is None:
        model = parse_cache.build_model(root, config, frontend,
                                        compile_commands)
    findings = []
    timings = {}
    for name, pass_mod in (("roles", roles),
                           ("publication", publication),
                           ("intervals", intervals)):
        t0 = time.monotonic()
        pass_mod.run(model, config, findings)
        timings[name] = round(time.monotonic() - t0, 3)
    check_stale_pragmas(model.files, findings, DATAFLOW_RULES, TOOL_NAME)
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
                    help="write the role-assignment matrix (JSON)")
    ap.add_argument("--baseline",
                    default=os.path.join(here, "analysis_baseline.json"))
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite this tool's baseline section from "
                         "current findings (justifications by review)")
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
        print(f"igs_dataflow: cannot load {args.layers}: {exc}",
              file=sys.stderr)
        return 2

    cc = args.compile_commands if args.frontend != "lex" else None
    model, findings = run_analysis(args.root, config, args.frontend, cc)

    if args.update_baseline:
        baseline.write_template(args.baseline, findings, tool=TOOL_NAME)
        print(f"igs_dataflow: baseline section written to "
              f"{args.baseline}")
        return 0

    entries = baseline.load(args.baseline, tool=TOOL_NAME)
    baseline_rel = os.path.relpath(args.baseline, args.root)
    findings.extend(baseline.apply(findings, entries, baseline_rel))

    if args.matrix:
        with open(args.matrix, "w", encoding="utf-8") as f:
            json.dump(model.role_matrix, f, indent=2)
            f.write("\n")
    if args.sarif:
        sarif.write_sarif(args.sarif, TOOL_NAME, findings, args.root,
                          RULE_DESCRIPTIONS, DATAFLOW_RULES)

    active = [f for f in findings if not f.suppressed and not f.baselined]
    gate = active
    if args.diff_base:
        changed = changed_files(args.root, args.diff_base)
        if changed is not None:
            # Coverage holes and stale audit entries gate regardless of
            # the diff: both are whole-tree invariants, not line edits.
            gate = [f for f in active
                    if f.path in changed or f.rule.startswith("stale-")
                    or f.rule == "backend-role-coverage"]
    for f in active:
        mark = "" if f in gate else " [outside diff scope]"
        print(f"{f}{mark}")

    ps = getattr(model, "parse_stats", {})
    pt = getattr(model, "pass_timings", {})
    timing = ", ".join([f"parse {ps.get('seconds', 0)}s "
                        f"({ps.get('jobs', 1)}j, "
                        f"{ps.get('cache_hits', 0)} cached)"] +
                       [f"{k} {v}s" for k, v in pt.items()])
    print(f"igs_dataflow: {'FAIL' if gate else 'OK'} "
          f"({ps.get('files', len(model.files))} files, "
          f"frontend={model.frontend}, {len(active)} finding(s), "
          f"{len(gate)} gating; {timing})")
    if not gate and active and args.diff_base:
        print("igs_dataflow: non-gating findings above predate "
              "--diff-base; fix or baseline them in a follow-up")
    return 1 if gate else 0


# --- self-test over tests/dataflow_fixtures ------------------------------

# fixture name -> {"rules": {rule: [(path, line)]}, "contains": [...],
# "not_contains": [...]}.  Line 0 matches any line.  Any finding with a
# rule outside the expectation fails the fixture (exact-SARIF check).
SELF_TEST_EXPECTATIONS = {
    "clean_ok": {"rules": {}},
    "compute_mutates_live": {
        "rules": {"compute-role-mutates-live":
                  [("src/app/pipeline.cc", 14)]},
        "contains": ["apply_insert"],
    },
    "compute_reads_live_graph": {
        "rules": {"compute-role-reads-live":
                  [("src/app/analytics.h", 19)]},
        "contains": ["[backend: MiniStore]"],
    },
    "relaxed_publish": {
        "rules": {"relaxed-publication-store":
                  [("src/core/flag.h", 18)]},
        "contains": ["tsan-pipeline"],
    },
    "unpaired_release": {
        "rules": {"unpaired-release-store": [("src/core/oneway.h", 10)]},
    },
    "unpaired_acquire": {
        "rules": {"unpaired-acquire-load": [("src/core/oneway.h", 9)]},
    },
    "narrowing_overflow": {
        "rules": {"narrowing-overflow": [("src/stream/offsets.cc", 9)]},
        "contains": ["5000000000"],
    },
    "unproven_narrowing": {
        "rules": {"unproven-narrowing": [("src/stream/offsets.cc", 20)]},
        "not_contains": ["guarded_total"],
    },
    "missing_role_coverage": {
        "rules": {"backend-role-coverage":
                  [("src/graph/other_store.h", 5)]},
        "contains": ["OtherStore"],
    },
}


def run_self_test(root):
    fixtures = os.path.join(root, "tests", "dataflow_fixtures")
    if not os.path.isdir(fixtures):
        print(f"igs_dataflow: fixture dir missing: {fixtures}",
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
                                   RULE_DESCRIPTIONS, DATAFLOW_RULES)
        got = []
        messages = []
        for res in doc["runs"][0]["results"]:
            loc = res["locations"][0]["physicalLocation"]
            got.append((res["ruleId"],
                        loc["artifactLocation"]["uri"],
                        loc["region"]["startLine"]))
            messages.append(res["message"]["text"])
        want = [(rule, path, line)
                for rule, locs in exp["rules"].items()
                for path, line in locs]
        for rule, path, line in want:
            hit = any(g[0] == rule and g[1] == path and
                      (line == 0 or g[2] == line) for g in got)
            if not hit:
                failures.append(f"{name}: expected [{rule}] at "
                                f"{path}:{line}, got {sorted(got)}")
        expected_rules = set(exp["rules"])
        for g in got:
            if g[0] not in expected_rules:
                failures.append(f"{name}: unexpected finding "
                                f"[{g[0]}] at {g[1]}:{g[2]}")
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
            print(f"igs_dataflow self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"igs_dataflow self-test: OK "
          f"({len(SELF_TEST_EXPECTATIONS)} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
