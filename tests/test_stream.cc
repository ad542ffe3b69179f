/**
 * @file
 * Tests for the streaming layer: batch statistics, reordering, and the
 * three software update kernels — in particular the cross-kernel
 * equivalence property (all paths produce the same final graph).
 */
#include <algorithm>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/update_context.h"
#include "stream/updaters.h"

namespace igs::stream {
namespace {

std::vector<StreamEdge>
random_edges(std::size_t n, std::uint64_t seed, double delete_fraction = 0.0,
             std::uint32_t vertices = 300)
{
    gen::StreamModel m;
    m.num_vertices = vertices;
    m.num_hubs = 8;
    m.hub_mass_dst = 0.2;
    m.delete_fraction = delete_fraction;
    m.weighted = true;
    m.seed = seed;
    return gen::EdgeStreamGenerator(m).take(n);
}

// ----------------------------------------------------------- batch stats
TEST(BatchStats, CountsDegreesAndUniques)
{
    std::vector<StreamEdge> edges{
        {0, 1, 1.0f, false}, {0, 2, 1.0f, false}, {3, 1, 1.0f, false}};
    const auto s = compute_batch_degree_stats(edges);
    EXPECT_EQ(s.max_out_degree, 2u);
    EXPECT_EQ(s.max_in_degree, 2u);
    EXPECT_EQ(s.unique_sources, 2u);
    EXPECT_EQ(s.unique_destinations, 2u);
    EXPECT_EQ(s.out_degree_histogram.at(2), 1u);
    EXPECT_EQ(s.out_degree_histogram.at(1), 1u);
}

// -------------------------------------------------------------- reorder
TEST(Reorder, SortsBySourceAndDestinationStably)
{
    std::vector<StreamEdge> edges{{2, 5, 1.0f, false},
                                  {1, 6, 2.0f, false},
                                  {2, 4, 3.0f, false},
                                  {1, 6, 4.0f, false}};
    const auto rb = reorder_batch(edges, default_pool());
    ASSERT_EQ(rb.by_src.edges.size(), 4u);
    // Sorted by src; ties keep arrival order (stability).
    EXPECT_EQ(rb.by_src.edges[0].src, 1u);
    EXPECT_FLOAT_EQ(rb.by_src.edges[0].weight, 2.0f);
    EXPECT_FLOAT_EQ(rb.by_src.edges[1].weight, 4.0f);
    EXPECT_EQ(rb.by_src.edges[2].src, 2u);
    EXPECT_FLOAT_EQ(rb.by_src.edges[2].weight, 1.0f);
    // Runs: vertex 1 spans [0,2), vertex 2 spans [2,4).
    ASSERT_EQ(rb.by_src.runs.size(), 2u);
    EXPECT_EQ(rb.by_src.runs[0].vertex, 1u);
    EXPECT_EQ(rb.by_src.runs[0].size(), 2u);
    EXPECT_EQ(rb.by_src.runs[1].vertex, 2u);
    // Destination view.
    ASSERT_EQ(rb.by_dst.runs.size(), 3u);
    EXPECT_EQ(rb.by_dst.runs[0].vertex, 4u);
}

TEST(Reorder, RunsPartitionTheBatch)
{
    const auto edges = random_edges(5000, 21);
    const auto rb = reorder_batch(edges, default_pool());
    for (const auto& dir_view : {rb.by_src, rb.by_dst}) {
        std::size_t covered = 0;
        std::uint32_t prev_end = 0;
        for (const auto& run : dir_view.runs) {
            EXPECT_EQ(run.begin, prev_end);
            EXPECT_GT(run.end, run.begin);
            covered += run.size();
            prev_end = run.end;
        }
        EXPECT_EQ(covered, edges.size());
    }
}

TEST(Reorder, EmptyBatch)
{
    const auto rb = reorder_batch({}, default_pool());
    EXPECT_TRUE(rb.by_src.runs.empty());
    EXPECT_TRUE(rb.by_dst.runs.empty());
}

// ------------------------------------------------------------ oca probe
TEST(OcaProbe, RatioCountsOnlyAdjacentBatchOverlap)
{
    OcaProbe p;
    p.note(4, 5); // previous batch -> overlap
    p.note(2, 5); // older batch -> no overlap
    p.note(0, 5); // never seen -> no overlap
    EXPECT_EQ(p.unique_nodes(), 3u);
    EXPECT_EQ(p.overlapping_nodes(), 1u);
    EXPECT_NEAR(p.ratio(), 1.0 / 3.0, 1e-12);
}

TEST(TouchSource, CountsEachSourceOncePerBatch)
{
    graph::AdjacencyList g(4);
    OcaProbe p;
    touch_source(g, 1, 7, &p);
    touch_source(g, 1, 7, &p); // same batch: no double count
    touch_source(g, 2, 7, &p);
    EXPECT_EQ(p.unique_nodes(), 2u);
    touch_source(g, 1, 8, &p); // next batch: counts and overlaps
    EXPECT_EQ(p.unique_nodes(), 3u);
    EXPECT_EQ(p.overlapping_nodes(), 1u);
}

// ----------------------------------------------- kernel building blocks
TEST(Updaters, BaselineAppliesInsertsAndDeletes)
{
    graph::AdjacencyList g(10);
    RealContext ctx;
    EdgeBatch b;
    b.id = 1;
    b.set_edges({{0, 1, 2.0f, false},
               {0, 2, 1.0f, false},
               {0, 1, 3.0f, false},  // duplicate: accumulate
               {0, 2, 0.0f, true}});  // delete in same batch
    apply_batch_baseline(g, b, ctx);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_FLOAT_EQ(g.edges(0, Direction::kOut)[0].weight, 5.0f);
    EXPECT_EQ(g.degree(1, Direction::kIn), 1u);
    EXPECT_EQ(g.degree(2, Direction::kIn), 0u);
    EXPECT_EQ(g.latest_bid(0), 1u);
}

/**
 * The central correctness property: every software update path produces
 * the same final graph, with and without deletions, across seeds and
 * batch sizes, under real multithreaded execution.
 */
struct EquivalenceCase {
    std::uint64_t seed;
    std::size_t batch_size;
    double delete_fraction;
};

class KernelEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(KernelEquivalenceTest, AllPathsAgree)
{
    const auto [seed, batch_size, delete_fraction] = GetParam();
    constexpr std::size_t kBatches = 5;
    ThreadPool pool(4);
    RealContext ctx(pool);

    graph::AdjacencyList baseline(300);
    graph::AdjacencyList reordered(300);
    graph::AdjacencyList usc(300);

    gen::StreamModel m;
    m.num_vertices = 300;
    m.num_hubs = 8;
    m.hub_mass_dst = 0.25;
    m.delete_fraction = delete_fraction;
    m.weighted = true;
    m.seed = seed;

    for (std::size_t k = 0; k < kBatches; ++k) {
        // All three paths see identical batches.
        gen::EdgeStreamGenerator g(m);
        std::vector<StreamEdge> all = g.take(batch_size * kBatches);
        EdgeBatch batch;
        batch.id = k + 1;
        batch.set_edges(std::vector<StreamEdge>(
            all.begin() + static_cast<long>(k * batch_size),
            all.begin() + static_cast<long>((k + 1) * batch_size)));

        apply_batch_baseline(baseline, batch, ctx);
        const auto rb = reorder_batch(batch.edges(), pool);
        apply_batch_reordered(reordered, batch, rb, ctx);
        apply_batch_usc(usc, batch, rb, ctx);
    }

    EXPECT_TRUE(same_topology(baseline, reordered));
    EXPECT_TRUE(same_topology(baseline, usc));
    EXPECT_EQ(baseline.num_edges(), reordered.num_edges());
    EXPECT_EQ(baseline.num_edges(), usc.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KernelEquivalenceTest,
    ::testing::Values(EquivalenceCase{1, 100, 0.0},
                      EquivalenceCase{2, 100, 0.2},
                      EquivalenceCase{3, 1000, 0.0},
                      EquivalenceCase{4, 1000, 0.1},
                      EquivalenceCase{5, 3000, 0.3},
                      EquivalenceCase{6, 500, 0.05},
                      EquivalenceCase{7, 2000, 0.0},
                      EquivalenceCase{8, 2500, 0.25}));

TEST(Updaters, DahMatchesAdjacencyListUnderBaseline)
{
    ThreadPool pool(4);
    RealContext ctx(pool);
    graph::AdjacencyList al(300);
    graph::DegreeAwareHash dah(300);
    for (int k = 0; k < 4; ++k) {
        EdgeBatch b;
        b.id = static_cast<std::uint64_t>(k + 1);
        b.set_edges(random_edges(2000, 100 + k, 0.15));
        apply_batch_baseline(al, b, ctx);
        apply_batch_baseline(dah, b, ctx);
    }
    ASSERT_EQ(al.num_edges(), dah.num_edges());
    for (VertexId v = 0; v < 300; ++v) {
        for (auto dir : {Direction::kOut, Direction::kIn}) {
            const auto a = al.sorted_edges(v, dir);
            const auto d = dah.sorted_edges(v, dir);
            ASSERT_EQ(a.size(), d.size()) << "vertex " << v;
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i].id, d[i].id);
                ASSERT_NEAR(a[i].weight, d[i].weight, 1e-3);
            }
        }
    }
}

TEST(Updaters, OcaProbeSeesOverlapThroughBaselineUpdates)
{
    graph::AdjacencyList g(100);
    RealContext ctx;
    EdgeBatch b1;
    b1.id = 1;
    for (VertexId v = 0; v < 50; ++v) {
        b1.push_edge({v, static_cast<VertexId>(v + 50), 1.0f, false});
    }
    apply_batch_baseline(g, b1, ctx);

    EdgeBatch b2;
    b2.id = 2;
    for (VertexId v = 0; v < 50; ++v) {
        // Half the sources repeat from batch 1.
        const VertexId src = v < 25 ? v : static_cast<VertexId>(v + 25);
        b2.push_edge({src, static_cast<VertexId>(99 - src % 50),
                            1.0f, false});
    }
    OcaProbe probe;
    apply_batch_baseline(g, b2, ctx, &probe);
    EXPECT_NEAR(probe.ratio(), 0.5, 0.05);
}

} // namespace
} // namespace igs::stream
