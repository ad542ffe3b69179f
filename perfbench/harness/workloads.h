/**
 * @file
 * The benchmark's four workloads and their seeded inputs.
 *
 * Every workload runs the engine's default policy (kAbrUscHau, which is
 * ABR+USC on a real host); they differ in the input stream, the live
 * store, and the compute settings.  README.md records why each was
 * chosen.  Inputs are generated here, before any timing starts, from the
 * run's `--seed`: the datasets through DatasetSpec::make_generator(seed)
 * and the churn stream through DeletionStressModel::seed.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/incremental/analytics.h"
#include "core/engine.h"
#include "gen/datasets.h"
#include "gen/deletion_stress.h"
#include "stream/batch.h"

namespace perfbench {

/** One benchmark workload. */
struct Workload {
    std::string name;
    /** "wiki" / "lj" (dataset registry) or "churn" (deletion stress). */
    std::string stream;
    std::size_t batch_size = 10000;
    /** Measured batches per pass (one fresh engine per pass). */
    std::size_t batches = 0;
    igs::core::GraphBackend backend = igs::core::GraphBackend::kAdjacencyList;
    /** IncrementalAnalytics (PR + SSSP + BFS, auto policy) attached. */
    bool analytics = false;
    unsigned depth = 1;
    bool oca = true;
    bool renumber = false;
};

/** Deletion-stress stream of the churn workload. */
inline igs::gen::DeletionStressModel
churn_model(std::uint64_t seed)
{
    igs::gen::DeletionStressModel m;
    m.num_vertices = 1u << 13;
    m.build_edges = 1u << 15;
    m.burst = 1u << 9;
    m.seed = seed;
    return m;
}

inline const std::vector<Workload>&
workloads()
{
    using igs::core::GraphBackend;
    static const std::vector<Workload> w{
        {"wiki-ingest", "wiki", 10000, 200, GraphBackend::kAdjacencyList,
         false, 1, true, false},
        {"lj-ingest", "lj", 10000, 200, GraphBackend::kHybrid, false, 1, true,
         true},
        {"wiki-epochs", "wiki", 10000, 20, GraphBackend::kHybrid, true, 2,
         true, false},
        {"churn-epochs", "churn", 1u << 9, 100, GraphBackend::kAdjacencyList,
         true, 1, false, false},
    };
    return w;
}

inline const Workload&
find_workload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (w.name == name) {
            return w;
        }
    }
    throw std::invalid_argument("unknown workload: " + name);
}

/** Engine configuration of a workload. */
inline igs::core::EngineConfig
engine_config(const Workload& w)
{
    igs::core::EngineConfig c;
    c.policy = igs::core::UpdatePolicy::kAbrUscHau;
    c.graph_backend = w.backend;
    c.pipeline_depth = w.depth;
    c.oca.enabled = w.oca;
    c.renumber.enabled = w.renumber;
    return c;
}

/** Analytics bundle configuration: the engine's incremental policy, with
 *  the incremental equivalence harness's tight PageRank convergence so
 *  the final ranks can be checked against a from-scratch rerun. */
inline igs::analytics::incremental::IncrementalConfig
analytics_config(const igs::core::EngineConfig& engine)
{
    igs::analytics::incremental::IncrementalConfig c;
    c.policy = engine.incremental;
    c.pagerank.tolerance = 1e-12;
    c.pagerank.max_iterations = 250;
    return c;
}

/** Pre-generated inputs of one run. */
struct Inputs {
    /** Vertex count the engine is constructed with. */
    std::size_t num_vertices = 0;
    /** Build-up prefix loaded during set-up (churn only). */
    std::optional<igs::stream::EdgeBatch> prefix;
    /** The measured stream. */
    std::vector<igs::stream::EdgeBatch> batches;
    /** Stream operations in `batches`. */
    std::uint64_t ops = 0;
};

inline Inputs
make_inputs(const Workload& w, std::uint64_t seed)
{
    Inputs in;
    std::uint64_t id = 1;
    auto fill = [&](auto& generator) {
        in.batches.reserve(w.batches);
        for (std::size_t i = 0; i < w.batches; ++i) {
            in.batches.emplace_back(id++, generator.take(w.batch_size));
            in.ops += in.batches.back().size();
        }
    };
    if (w.stream == "churn") {
        const igs::gen::DeletionStressModel m = churn_model(seed);
        igs::gen::DeletionStressGenerator generator(m);
        in.num_vertices = m.num_vertices;
        in.prefix.emplace(id++, generator.take(m.build_edges));
        fill(generator);
    } else {
        const igs::gen::DatasetSpec& ds = igs::gen::find_dataset(w.stream);
        auto generator = ds.make_generator(seed);
        in.num_vertices = ds.model.num_vertices;
        fill(generator);
    }
    return in;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
