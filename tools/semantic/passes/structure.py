"""Whole-tree structural rules: module layering, include cycles and
lock-order cycles.

Unlike the other passes these look past `[semantic] scan`: igs_semantic
hands them a model of every C++ file under SCAN_DIRS, because a bench
that includes upward or a test that nests two locks in opposite orders
is as much a layering or deadlock bug as one under src/.

  layer-inversion   A quoted include must respect the module DAG of the
                    [layers] table in layers.toml: a file in module M may
                    include only from M and the modules listed under M
                    ("*" allows any).
  include-cycle     The quoted-include graph must be acyclic.
  lock-order-cycle  The lock-order graph ("B acquired while A is held",
                    stitched across functions through the call graph)
                    must be acyclic, else two threads taking the locks in
                    opposite orders can deadlock.  A scoped MutexLock /
                    SpinlockGuard / std:: lock-guard local holds its lock
                    from its declaration to the end of its block.  Calls
                    resolve by simple name, a deliberate over-
                    approximation, and skip the [hot_paths] stop list.
"""

import os
import re

from . import add
from .. import ast_lite

SCAN_DIRS = ("src", "bench", "tests", "examples")
GUARD_TYPES = frozenset({"MutexLock", "SpinlockGuard", "lock_guard",
                         "unique_lock", "scoped_lock"})
_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
_LOCK_EXPR = re.compile(r"[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*")


def run(tree, config, findings):
    includes = _include_graph(tree)
    _check_layers(tree, config.get("layers", {}), includes, findings)
    _check_include_cycles(tree, includes, findings)
    _check_lock_order(tree, set(config.get("hot_paths", {}).get("stop", ())),
                      findings)


# --- include graph --------------------------------------------------------


def _include_graph(tree):
    """rel -> [(target rel, line)] for every resolvable quoted include:
    src/-rooted first, then relative to the including file."""
    graph = {}
    for rel, fm in tree.files.items():
        edges = []
        for t in fm.tokens:
            m = _INCLUDE.match(t.text) if t.kind == "pp" else None
            if m is None:
                continue
            for cand in (os.path.join("src", m.group(1)),
                         os.path.join(os.path.dirname(rel), m.group(1))):
                cand = os.path.normpath(cand).replace(os.sep, "/")
                if os.path.exists(os.path.join(tree.root, cand)):
                    edges.append((cand, t.line))
                    break
        graph[rel] = edges
    return graph


def _module(rel):
    parts = rel.split("/")
    return parts[1] if parts[0] == "src" and len(parts) > 1 else parts[0]


def _check_layers(tree, layers, includes, findings):
    for rel, edges in sorted(includes.items()):
        mod = _module(rel)
        allowed = layers.get(mod)
        for target, line in edges:
            tmod = _module(target)
            if tmod == mod:
                continue
            if allowed is None:
                add(findings, tree.files[rel], line, "layer-inversion",
                    f"module '{mod}' is not declared in tools/layers.toml "
                    f"[layers]")
                break
            if "*" in allowed or tmod in allowed:
                continue
            add(findings, tree.files[rel], line, "layer-inversion",
                f"module '{mod}' may not include from '{tmod}' (declared "
                f"deps: {sorted(allowed) or 'none'}; see tools/layers.toml)")


def _check_include_cycles(tree, includes, findings):
    graph = {rel: [t for t, _ in edges if t in includes]
             for rel, edges in includes.items()}
    for scc in _cycles(graph):
        head = scc[0]
        line = next((ln for t, ln in includes[head] if t in scc), 1)
        add(findings, tree.files[head], line, "include-cycle",
            "include cycle: " + " -> ".join(scc + [head]))


# --- lock order -----------------------------------------------------------


def _check_lock_order(tree, stop, findings):
    funcs = [fn for fn in tree.functions if fn.body is not None]
    by_name = {}
    for i, fn in enumerate(funcs):
        by_name.setdefault(fn.name, []).append(i)
    guards = [_guards(fn) for fn in funcs]
    # Per function: (call site, indices of the functions it may reach).
    calls = [[(c, by_name[c.name])
              for c in ast_lite.iter_calls(fn.file.tokens, *fn.body)
              if c.name in by_name and c.name not in stop]
             for fn in funcs]

    # Fixpoint: the locks each function acquires, itself or in callees.
    trans = [{g[0] for g in gs} for gs in guards]
    callees = [{j for _c, js in cs for j in js} for cs in calls]
    changed = True
    while changed:
        changed = False
        for i, mine in enumerate(trans):
            before = len(mine)
            for j in callees[i]:
                mine |= trans[j]
            changed |= len(mine) != before

    # Ordered edges: lock A is held where B is taken, either by a guard
    # in A's scope or inside a call made from it.
    edges = {}                              # (a, b) -> (path, line)
    for i, fn in enumerate(funcs):
        for label, idx, end in guards[i]:
            sites = [({label2}, fn.file.tokens[idx2].line)
                     for label2, idx2, _ in guards[i] if idx < idx2 < end]
            sites += [(trans[j], c.line)
                      for c, js in calls[i] if idx < c.idx < end
                      for j in js]
            for held, line in sites:
                for b in held:
                    if b != label:
                        edges.setdefault((label, b), (fn.file.rel, line))
    graph = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    for scc in _cycles(graph):
        sites = sorted({site for (a, b), site in edges.items()
                        if a in scc and b in scc})
        where = "; ".join(f"{p}:{l}" for p, l in sites[:4])
        add(findings, tree.files[sites[0][0]], sites[0][1],
            "lock-order-cycle",
            f"locks {{{', '.join(scc)}}} are acquired in conflicting "
            f"nesting orders (sites: {where}) -- concurrent callers can "
            f"deadlock")


def _guards(fn):
    """[(lock label, name token index, end-of-scope token index)] of the
    scoped lock guards declared in fn's body.  A label is the guarded
    expression qualified by the defining file's stem, so same-named
    member locks of unrelated classes stay apart while the .h/.cc
    halves of one class share a node."""
    toks = fn.file.tokens
    stem = os.path.splitext(os.path.basename(fn.file.rel))[0]
    out = []
    for v in ast_lite.iter_locals(toks, *fn.body):
        if v.type_base not in GUARD_TYPES or \
                toks[v.init_lo].text not in ("(", "{"):
            continue
        arg = "".join(t.text for t in toks[v.init_lo + 1:v.init_hi - 1])
        arg = re.sub(r"\[[^\]]*\]", "", arg.split(",")[0]).lstrip("&*")
        m = _LOCK_EXPR.match(arg)
        if m is not None:
            out.append((f"{stem}:{m.group(0)}", v.decl_idx,
                        _scope_end(toks, v.decl_idx, fn.body[1])))
    return out


def _scope_end(toks, idx, hi):
    """Index of the '}' closing the block that encloses token idx."""
    depth = 0
    for k in range(idx, hi):
        if toks[k].text == "{":
            depth += 1
        elif toks[k].text == "}":
            if depth == 0:
                return k
            depth -= 1
    return hi


# --- graphs ---------------------------------------------------------------


def _cycles(graph):
    """The strongly connected components of `graph` that hold a cycle,
    each sorted, in order of their least node."""
    reach = {n: _reachable(graph, n) for n in graph}
    out, seen = [], set()
    for n in sorted(graph):
        if n not in seen and n in reach[n]:
            scc = sorted(m for m in reach[n] if n in reach.get(m, ()))
            seen.update(scc)
            out.append(scc)
    return out


def _reachable(graph, start):
    """Nodes reachable from `start` over one or more edges."""
    seen, stack = set(), list(graph.get(start, ()))
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(graph.get(n, ()))
    return seen
