"""igs semantic analyzer package (tools/igs_semantic.py driver).

AST-grade whole-program analysis for the igstream repository, driven by
compile_commands.json.  Two frontends produce one intermediate model
(tools/semantic/model.py):

  - frontend_clang  libclang (clang.cindex) when importable — parses the
                    real translation units and cross-validates the model;
  - ast_lite        always available — a C++ tokenizer plus a lightweight
                    parser tuned to this repository's idiom (namespaces,
                    template classes, member/param/local types, constexpr
                    requires-probes, explicit instantiations).

Five passes run over the model (tools/semantic/passes/):

  hot_path        template-aware hot-path escape analysis with per-backend
                  attribution through instantiated specializations;
  lifetime        SnapshotView escape / invalidation / compute-stage
                  isolation (the pipeline's one-epoch-ahead invariant);
  contracts       GraphStore backend concept-surface conformance and the
                  backend-capability matrix;
  telemetry_keys  telemetry counter-name registry, naming-scheme
                  conformance, and golden-JSON key cross-check;
  structure       module-layer DAG, include cycles and lock-order cycles
                  over src, bench, tests and examples.

Findings share igs_lint's allow() pragma mechanism, an audited baseline
file with stale-entry detection (tools/semantic/baseline.py), and the
SARIF 2.1.0 emitter shared with tools/igs_dataflow.py
(tools/semantic/sarif.py).
"""
