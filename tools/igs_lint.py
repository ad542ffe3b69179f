#!/usr/bin/env python3
"""igs_lint — repo-specific static checks for igstream.

Wired as the `lint` ctest/CMake target.  Enforces per-line invariants
that neither the compiler nor clang's thread-safety analysis can express
(whole-program rules, hot-path allocation among them, live in
tools/igs_semantic.py):

  bare-mutex          Outside src/common/, blocking synchronization must use
                      igs::Mutex or igs::Spinlock (both visible to the
                      thread-safety analysis), never a bare std::*mutex.
  check-side-effect   IGS_CHECK/IGS_DCHECK/IGS_CHECK_MSG arguments must be
                      side-effect free: IGS_DCHECK compiles out under NDEBUG,
                      so a mutation inside it changes release behaviour.
  atomic-memory-order Everywhere under src/ (every module, including
                      src/gen) every atomic operation spells its
                      memory_order explicitly — the implicit seq_cst
                      default hides the cost and the intent on hot paths.
  header-guard        src/**/*.h guards follow IGS_<PATH>_H canonically.
  include-hygiene     Quoted includes are src-root-relative (or a sibling
                      file); no `..` traversal, no <bits/...> internals.

Usage:
  igs_lint.py [--root DIR]      lint the repo rooted at DIR (default: the
                                repository containing this script)
  igs_lint.py --self-test       run the rules against tests/lint_fixtures
                                and assert every rule fires where expected

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".h", ".cc")
EXCLUDED_PARTS = ("lint_fixtures", "semantic_fixtures", "dataflow_fixtures",
                  "build")

ALLOW_PRAGMA = re.compile(r"igs-lint:\s*allow\(([a-z-]+)")

BARE_MUTEX = re.compile(r"std::(recursive_|timed_|shared_)?mutex\b")

CHECK_MACROS = re.compile(r"\b(IGS_CHECK_MSG|IGS_CHECK|IGS_DCHECK)\s*\(")
SIDE_EFFECT_PATTERNS = [
    (re.compile(r"(\+\+|--)"), "increment/decrement"),
    (re.compile(r"(?<![=!<>+\-*/%&|^])=(?![=])"), "assignment"),
    (re.compile(r"(\+|-|\*|/|%|&|\||\^|<<|>>)="), "compound assignment"),
    (re.compile(
        r"\.\s*(push_back|pop_back|insert|erase|emplace|clear|assign|reset"
        r"|release|swap)\s*\("),
     "mutating call"),
]

ATOMIC_OPS = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_SCOPE = ("src/",)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def blank_comments_and_strings(text):
    """Return (code, comments): `code` is `text` with comment bodies and
    string/char literal contents replaced by spaces (newlines preserved, so
    line numbers survive), `comments` maps 1-based line number -> comment
    text found on that line (for pragma detection)."""
    code = []
    comments = {}
    i, n, line = 0, len(text), 1

    def note_comment(ch):
        comments[line] = comments.get(line, "") + ch

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append(c)
            line += 1
            i += 1
        elif c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                note_comment(text[i])
                code.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            code.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] == "\n":
                    code.append("\n")
                    line += 1
                else:
                    note_comment(text[i])
                    code.append(" ")
                i += 1
            if i < n:
                code.append("  ")
                i += 2
        elif c == "R" and nxt == '"':
            # Raw string literal R"delim(...)delim"
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m is None:
                code.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i + m.end())
            if end < 0:
                end = n
            for j in range(i, min(end + len(m.group(1)) + 2, n)):
                if text[j] == "\n":
                    code.append("\n")
                    line += 1
                else:
                    code.append(" ")
            i = min(end + len(m.group(1)) + 2, n)
        elif c in "\"'":
            quote = c
            code.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    code.append("  ")
                    i += 2
                elif text[i] == "\n":  # unterminated; bail to keep lines
                    break
                else:
                    code.append(" ")
                    i += 1
            if i < n and text[i] == quote:
                code.append(quote)
                i += 1
        else:
            code.append(c)
            i += 1
    return "".join(code), comments


def is_allowed(rule, lineno, comments):
    for ln in (lineno, lineno - 1):
        m = ALLOW_PRAGMA.search(comments.get(ln, ""))
        if m and m.group(1) == rule:
            return True
    return False


def extract_call_args(code, start):
    """Given `code` and the index of the '(' opening a call, return
    (args, end_line_offset) with balanced parentheses, or None."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[start + 1:i]
    return None


def check_bare_mutex(rel, code_lines, comments, out):
    if rel.replace(os.sep, "/").startswith("src/common/"):
        return
    for idx, codeline in enumerate(code_lines, start=1):
        if BARE_MUTEX.search(codeline):
            if not is_allowed("bare-mutex", idx, comments):
                out.append(Violation(
                    rel, idx, "bare-mutex",
                    "bare std::mutex outside src/common/ — use igs::Mutex "
                    "or igs::Spinlock so the thread-safety analysis sees it"))


def check_side_effects(rel, code, out):
    if rel.replace(os.sep, "/") == "src/common/check.h":
        return  # the macro definitions themselves
    for m in CHECK_MACROS.finditer(code):
        args = extract_call_args(code, m.end() - 1)
        if args is None:
            continue
        lineno = code.count("\n", 0, m.start()) + 1
        for pattern, label in SIDE_EFFECT_PATTERNS:
            if pattern.search(args):
                out.append(Violation(
                    rel, lineno, "check-side-effect",
                    f"{label} inside {m.group(1)} — the expression "
                    f"must be side-effect free (IGS_DCHECK compiles out "
                    f"under NDEBUG)"))
                break


def check_atomic_orders(rel, code, comments, out):
    posix = rel.replace(os.sep, "/")
    if not any(posix.startswith(scope) for scope in ATOMIC_SCOPE):
        return
    for m in ATOMIC_OPS.finditer(code):
        args = extract_call_args(code, m.end() - 1)
        if args is None:
            continue
        lineno = code.count("\n", 0, m.start()) + 1
        if "memory_order" not in args and \
                not is_allowed("atomic-memory-order", lineno, comments):
            out.append(Violation(
                rel, lineno, "atomic-memory-order",
                f".{m.group(1)}() without an explicit std::memory_order "
                f"argument (implicit seq_cst hides intent and cost)"))


def expected_guard(rel):
    posix = rel.replace(os.sep, "/")
    assert posix.startswith("src/") and posix.endswith(".h")
    stem = posix[len("src/"):-len(".h")]
    return "IGS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H"


def check_header_guard(rel, code_lines, out):
    posix = rel.replace(os.sep, "/")
    if not (posix.startswith("src/") and posix.endswith(".h")):
        return
    guard = expected_guard(rel)
    ifndef_re = re.compile(r"^\s*#\s*ifndef\s+(\S+)")
    define_re = re.compile(r"^\s*#\s*define\s+(\S+)")
    for idx, line in enumerate(code_lines, start=1):
        m = ifndef_re.match(line)
        if m is None:
            if line.strip():
                break  # first non-blank code line is not a guard
            continue
        if m.group(1) != guard:
            out.append(Violation(
                rel, idx, "header-guard",
                f"guard {m.group(1)} != canonical {guard}"))
            return
        for jdx in range(idx, len(code_lines)):
            nxt = code_lines[jdx]
            if nxt.strip():
                d = define_re.match(nxt)
                if d is None or d.group(1) != guard:
                    out.append(Violation(
                        rel, jdx + 1, "header-guard",
                        f"#ifndef {guard} not followed by matching #define"))
                return
        return
    out.append(Violation(rel, 1, "header-guard",
                         f"missing header guard (expected {guard})"))


def check_includes(root, rel, raw_lines, out):
    src_root = os.path.join(root, "src")
    here = os.path.dirname(os.path.join(root, rel))
    for idx, line in enumerate(raw_lines, start=1):
        m = INCLUDE_RE.match(line)
        if m is None:
            continue
        kind, target = m.groups()
        if kind == "<" and target.startswith("bits/"):
            out.append(Violation(rel, idx, "include-hygiene",
                                 f"<{target}> is a libstdc++ internal"))
            continue
        if kind != '"':
            continue
        if ".." in target.split("/"):
            out.append(Violation(rel, idx, "include-hygiene",
                                 f'"{target}" uses parent-relative path'))
            continue
        if not (os.path.exists(os.path.join(src_root, target)) or
                os.path.exists(os.path.join(here, target))):
            out.append(Violation(
                rel, idx, "include-hygiene",
                f'"{target}" resolves neither from src/ nor as a sibling'))


def lint_file(root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        return [Violation(rel, 0, "io", str(e))]
    code, comments = blank_comments_and_strings(text)
    raw_lines = text.splitlines()
    code_lines = code.splitlines()
    out = []
    check_bare_mutex(rel, code_lines, comments, out)
    check_side_effects(rel, code, out)
    check_atomic_orders(rel, code, comments, out)
    check_header_guard(rel, code_lines, out)
    check_includes(root, rel, raw_lines, out)
    return out


def discover(root):
    files = []
    for scan in SCAN_DIRS:
        top = os.path.join(root, scan)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d not in EXCLUDED_PARTS and
                           not d.startswith("build")]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.relpath(
                        os.path.join(dirpath, name), root))
    return sorted(files)


def run_lint(root):
    violations = []
    files = discover(root)
    for rel in files:
        violations.extend(lint_file(root, rel))
    return files, violations


# Fixture file -> rules it must trip (see tests/lint_fixtures/).
SELF_TEST_EXPECTATIONS = {
    "src/core/bad_mutex.cc": {"bare-mutex"},
    "src/graph/bad_check.cc": {"check-side-effect"},
    "src/sim/bad_atomic.cc": {"atomic-memory-order"},
    "src/gen/bad_atomic_gen.cc": {"atomic-memory-order"},
    "src/stream/bad_guard.h": {"header-guard"},
    "src/gen/bad_include.cc": {"include-hygiene"},
    "src/common/clean_ok.h": set(),
}


def run_self_test(repo_root):
    fixture_root = os.path.join(repo_root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_root):
        print(f"igs_lint self-test: missing {fixture_root}", file=sys.stderr)
        return 2
    failures = []
    by_file = {}
    for rel in discover(fixture_root):
        by_file[rel.replace(os.sep, "/")] = {
            v.rule for v in lint_file(fixture_root, rel)}
    for rel, expected in SELF_TEST_EXPECTATIONS.items():
        got = by_file.get(rel)
        if got is None:
            failures.append(f"fixture {rel} not found/scanned")
        elif expected and not expected <= got:
            failures.append(f"{rel}: expected rules {sorted(expected)} "
                            f"to fire, got {sorted(got)}")
        elif not expected and got:
            failures.append(f"{rel}: expected clean, got {sorted(got)}")
    for rel in by_file:
        if rel not in SELF_TEST_EXPECTATIONS:
            failures.append(f"unexpected fixture file {rel} (add it to "
                            f"SELF_TEST_EXPECTATIONS)")
    if failures:
        for f in failures:
            print(f"igs_lint self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"igs_lint self-test OK ({len(by_file)} fixtures, "
          f"{len(SELF_TEST_EXPECTATIONS)} expectations)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the rules against tests/lint_fixtures")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root if args.root is not None
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

    if args.self_test:
        return run_self_test(root)

    files, violations = run_lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"igs_lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s) "
              f"({len(files)} scanned)", file=sys.stderr)
        return 1
    print(f"igs_lint: OK ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
