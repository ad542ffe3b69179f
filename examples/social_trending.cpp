/**
 * @file
 * Domain example: social-network trending dashboard.
 *
 * A wiki-like interaction stream (strong burst hubs, temporal community
 * locality) is ingested in *large* batches — the throughput scenario
 * where the paper's machinery shines: ABR keeps these high-degree
 * batches on the reordered+USC path, and OCA aggregates compute rounds
 * of overlapping batches.  Incremental PageRank maintains the trending
 * list.
 *
 *   $ ./social_trending [batches]
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "analytics/incremental/pagerank.h"
#include "core/engine.h"
#include "gen/datasets.h"

int
main(int argc, char** argv)
{
    using namespace igs;

    const std::uint64_t batches =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8;
    const auto& ds = gen::find_dataset("wiki");
    auto interactions = ds.make_generator();

    core::EngineConfig config;
    config.policy = core::UpdatePolicy::kAbrUscHau;
    config.oca.enabled = true;
    core::RealTimeEngine engine(config, ds.model.num_vertices);
    analytics::incremental::PageRank trending;
    trending.full_rerun(engine.graph());

    constexpr std::size_t kBatchSize = 50000;
    std::printf("%-6s %-10s %-6s %-8s %-8s %s\n", "batch", "path", "CAD",
                "overlap", "compute", "update ms");
    for (std::uint64_t id = 1; id <= batches; ++id) {
        stream::EdgeBatch batch;
        batch.id = id;
        batch.set_edges(interactions.take(kBatchSize));
        const core::BatchReport report = engine.ingest(batch);

        const bool compute_now = engine.compute_due();
        std::printf("%-6llu %-10s %-6s %-8.2f %-8s %.1f\n",
                    static_cast<unsigned long long>(id),
                    report.reordered
                        ? (report.used_usc ? "RO+USC" : "RO")
                        : "baseline",
                    report.cad.has_value()
                        ? std::to_string(
                              static_cast<int>(report.cad->cad()))
                              .c_str()
                        : "-",
                    report.overlap,
                    compute_now ? "now" : "deferred",
                    report.wall_seconds * 1e3);

        if (compute_now) {
            const core::PendingWork work = engine.take_pending_work();
            trending.delta_propagate(engine.graph().dirty_view(work.affected));
        }
    }

    // Final trending list: top 5 by rank.
    const auto& ranks = trending.ranks();
    std::vector<VertexId> order(ranks.size());
    for (VertexId v = 0; v < order.size(); ++v) {
        order[v] = v;
    }
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](VertexId a, VertexId b) {
                          return ranks[a] > ranks[b];
                      });
    std::printf("\ntrending now:\n");
    for (int i = 0; i < 5; ++i) {
        std::printf("  #%d  vertex %-8u rank %.6f  (in-degree %u)\n", i + 1,
                    order[i], ranks[order[i]],
                    engine.graph().degree(order[i], Direction::kIn));
    }
    return 0;
}
