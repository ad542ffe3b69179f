/**
 * @file
 * Tests for the analytics layer: static PageRank and SSSP, the memoized
 * kernels primed on an empty graph and driven by delta rounds only (the
 * figure benches' compute path), BFS, connected components, and the
 * compute meter.
 */
#include <algorithm>
#include <cmath>
#include <queue>
#include <string>

#include <gtest/gtest.h>

#include "analytics/compute_meter.h"
#include "analytics/incremental/pagerank.h"
#include "analytics/incremental/sssp.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "common/random.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/dirty_set_view.h"
#include "graph/indexed_adjacency.h"
#include "stream/batch.h"
#include "stream/pending.h"
#include "stream/update_context.h"
#include "stream/updaters.h"

#include "test_support.h"

namespace igs::analytics {
namespace {

/** Build a small graph from explicit edges. */
graph::AdjacencyList
build(std::size_t n, const std::vector<std::pair<VertexId, VertexId>>& edges,
      const std::vector<Weight>& weights = {})
{
    graph::AdjacencyList g(n);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Weight w = weights.empty() ? 1.0f : weights[i];
        g.apply_insert(edges[i].first, {edges[i].second, w}, Direction::kOut);
        g.apply_insert(edges[i].second, {edges[i].first, w}, Direction::kIn);
    }
    return g;
}

// ------------------------------------------------------------- pagerank
TEST(StaticPageRank, SumsToOne)
{
    const auto g = build(5, {{0, 1}, {1, 2}, {2, 0}, {3, 2}, {4, 0}});
    const auto ranks = static_pagerank(g);
    double sum = 0.0;
    for (double r : ranks) {
        sum += r;
    }
    // Dangling mass leaks slightly in the GAP formulation; generous bound.
    EXPECT_NEAR(sum, 1.0, 0.25);
}

TEST(StaticPageRank, SymmetricCycleIsUniform)
{
    const auto g = build(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    const auto ranks = static_pagerank(g);
    for (double r : ranks) {
        EXPECT_NEAR(r, 0.25, 1e-3);
    }
}

TEST(StaticPageRank, HubReceivesHigherRank)
{
    // Everyone points at vertex 0.
    const auto g = build(5, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
    const auto ranks = static_pagerank(g);
    for (VertexId v = 1; v < 5; ++v) {
        EXPECT_GT(ranks[0], ranks[v]);
    }
}

TEST(StaticPageRank, EmptyGraph)
{
    graph::AdjacencyList g(0);
    EXPECT_TRUE(static_pagerank(g).empty());
}

TEST(IncrementalPageRank, ConvergesTowardStaticResult)
{
    constexpr double kTolerance = 1e-7;
    graph::AdjacencyList g(50);
    incremental::PageRank inc{PageRankParams{0.85, kTolerance, 200}};
    inc.full_rerun(g); // exact fixpoint of the empty graph
    stream::RealContext ctx;
    Rng rng(9);
    for (std::uint64_t k = 1; k <= 5; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        std::vector<VertexId> affected;
        for (int i = 0; i < 40; ++i) {
            const auto s = static_cast<VertexId>(rng.below(50));
            auto d = static_cast<VertexId>(rng.below(50));
            if (d == s) {
                d = (d + 1) % 50;
            }
            batch.push_edge({s, d, 1.0f, false});
            affected.push_back(s);
            affected.push_back(d);
        }
        stream::apply_batch_baseline(g, batch, ctx);
        std::sort(affected.begin(), affected.end());
        affected.erase(std::unique(affected.begin(), affected.end()),
                       affected.end());
        inc.delta_propagate(graph::DirtySetView(g, affected));
    }
    const auto exact = static_pagerank(g, {0.85, 1e-10, 500});
    // Seeding the dirty set's out-neighbourhood keeps the delta rounds on
    // the from-scratch fixpoint: what is left is the per-vertex residual,
    // amplified at most n/(1-damping)-fold.
    double max_err = 0.0;
    for (std::size_t v = 0; v < 50; ++v) {
        max_err = std::max(max_err, std::abs(exact[v] - inc.ranks()[v]));
    }
    EXPECT_LT(max_err, kTolerance * 50 / 0.15);
}

TEST(IncrementalPageRank, CountsWork)
{
    graph::AdjacencyList g(10);
    incremental::PageRank inc;
    inc.full_rerun(g);
    g.apply_insert(0, {1, 1.0f}, Direction::kOut);
    g.apply_insert(1, {0, 1.0f}, Direction::kIn);
    const std::vector<VertexId> dirty{0, 1};
    ComputeMeter meter;
    const auto stats = inc.delta_propagate(g.dirty_view(dirty), &meter);
    // The kernel reports its own share of the caller's meter; launching
    // the round (and paying for it) is the caller's.
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.seeds, 2u);
    EXPECT_GT(stats.activations, 0u);
    EXPECT_EQ(meter.stats().activations, stats.activations);
    EXPECT_EQ(meter.stats().traversals, stats.traversals);
}

// ----------------------------------------------------------------- sssp
TEST(StaticSssp, HopDistancesOnChain)
{
    const auto g = build(4, {{0, 1}, {1, 2}, {2, 3}});
    const auto d = static_sssp(g, 0);
    EXPECT_FLOAT_EQ(d[0], 0.0f);
    EXPECT_FLOAT_EQ(d[1], 1.0f);
    EXPECT_FLOAT_EQ(d[2], 2.0f);
    EXPECT_FLOAT_EQ(d[3], 3.0f);
}

TEST(StaticSssp, PrefersLighterPath)
{
    // 0 -> 1 -> 2 with weights 1+1 beats direct 0 -> 2 with weight 5.
    const auto g =
        build(3, {{0, 1}, {1, 2}, {0, 2}}, {1.0f, 1.0f, 5.0f});
    const auto d = static_sssp(g, 0);
    EXPECT_FLOAT_EQ(d[2], 2.0f);
}

TEST(StaticSssp, UnreachableIsInfinite)
{
    const auto g = build(3, {{0, 1}});
    const auto d = static_sssp(g, 0);
    EXPECT_TRUE(std::isinf(d[2]));
}

/**
 * The strong property, on the path the figure benches take: both
 * memoized kernels primed on the still-empty graph, then fed delta
 * rounds only from the engine's hand-off.  SSSP equals a from-scratch
 * recompute exactly after every batch, including deletions
 * (KickStarter-style trimming); PageRank equals static_pagerank within
 * tolerance (testutil::tight_pagerank).
 */
template <typename Graph>
void
expect_primed_delta_matches_static(std::uint64_t seed)
{
    gen::StreamModel m;
    m.num_vertices = 120;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.2;
    m.delete_fraction = 0.25;
    m.weighted = true;
    m.seed = seed;
    gen::EdgeStreamGenerator genr(m);

    Graph g(120);
    incremental::Sssp sssp(0);
    incremental::PageRank pr(testutil::tight_pagerank());
    sssp.full_rerun(g);
    pr.full_rerun(g);
    stream::PendingAccumulator pending;

    for (std::uint64_t k = 1; k <= 8; ++k) {
        const stream::EdgeBatch batch(k, genr.take(150));
        testutil::apply_batch(g, batch.edges());
        pending.note_batch(batch);
        const stream::PendingWork work = pending.hand_off(k);
        const graph::DirtySetView view(g, work.affected);
        sssp.delta_update(view, work.inserted, work.deleted);
        pr.delta_propagate(view);

        SCOPED_TRACE("batch " + std::to_string(k));
        EXPECT_EQ(sssp.distances(), static_sssp(g, 0));
        const auto exact = static_pagerank(g, testutil::tight_pagerank());
        ASSERT_EQ(pr.ranks().size(), exact.size());
        for (std::size_t v = 0; v < exact.size(); ++v) {
            ASSERT_NEAR(pr.ranks()[v], exact[v], 1e-8) << "vertex " << v;
        }
    }
}

class IncSsspTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncSsspTest, MatchesStaticAfterEveryBatch)
{
    {
        SCOPED_TRACE("AdjacencyList (real engine's store)");
        expect_primed_delta_matches_static<graph::AdjacencyList>(GetParam());
    }
    {
        SCOPED_TRACE("IndexedAdjacency (simulator's store)");
        expect_primed_delta_matches_static<graph::IndexedAdjacency>(
            GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncSsspTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ------------------------------------------------------------ traversal
TEST(Bfs, MatchesHandComputedDistances)
{
    const auto g = build(6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
    const auto d = bfs_distances(g, 0);
    EXPECT_EQ(d[0], 0u);
    EXPECT_EQ(d[1], 1u);
    EXPECT_EQ(d[2], 1u);
    EXPECT_EQ(d[3], 2u);
    EXPECT_EQ(d[4], 3u);
    EXPECT_EQ(d[5], ~0u);
}

TEST(ConnectedComponents, LabelsComponentsByMinVertex)
{
    const auto g = build(6, {{0, 1}, {1, 2}, {4, 5}});
    const auto labels = connected_components(g);
    EXPECT_EQ(labels[0], 0u);
    EXPECT_EQ(labels[1], 0u);
    EXPECT_EQ(labels[2], 0u);
    EXPECT_EQ(labels[3], 3u);
    EXPECT_EQ(labels[4], 4u);
    EXPECT_EQ(labels[5], 4u);
}

TEST(ConnectedComponents, DirectionIgnored)
{
    // Directed edges both ways still one component.
    const auto g = build(3, {{2, 0}, {1, 2}});
    const auto labels = connected_components(g);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[1], labels[2]);
}

// ---------------------------------------------------------------- meter
TEST(ComputeMeter, CyclesFollowCounts)
{
    ComputeCostParams p;
    ComputeStats a;
    a.activations = 100;
    a.traversals = 1000;
    a.rounds = 1;
    ComputeStats b = a;
    b.rounds = 2;
    EXPECT_GT(b.cycles(p), a.cycles(p));
    EXPECT_EQ(b.cycles(p) - a.cycles(p), static_cast<Cycles>(p.per_round));
}

TEST(ComputeMeter, Accumulates)
{
    ComputeMeter m;
    m.activate(3);
    m.traverse(7);
    m.round();
    m.iteration();
    EXPECT_EQ(m.stats().activations, 3u);
    EXPECT_EQ(m.stats().traversals, 7u);
    EXPECT_EQ(m.stats().rounds, 1u);
    m.reset();
    EXPECT_EQ(m.stats().activations, 0u);
}

} // namespace
} // namespace igs::analytics
