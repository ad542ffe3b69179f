/**
 * @file
 * Tests for the dynamic graph structures: AdjacencyList, DegreeAwareHash
 * and IndexedAdjacency — including randomized cross-structure equivalence
 * properties.
 */
#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/indexed_adjacency.h"

namespace igs::graph {
namespace {

// ------------------------------------------------------- adjacency list
TEST(AdjacencyList, InsertCreatesBothViews)
{
    AdjacencyList g(4);
    const auto r = g.apply_insert(1, {2, 1.0f}, Direction::kOut);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.probes, 0u);
    g.apply_insert(2, {1, 1.0f}, Direction::kIn);
    EXPECT_EQ(g.degree(1, Direction::kOut), 1u);
    EXPECT_EQ(g.degree(2, Direction::kIn), 1u);
    EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AdjacencyList, DuplicateInsertAccumulatesWeight)
{
    AdjacencyList g(4);
    g.apply_insert(0, {1, 2.0f}, Direction::kOut);
    const auto r = g.apply_insert(0, {1, 3.0f}, Direction::kOut);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.probes, 1u);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_FLOAT_EQ(g.edges(0, Direction::kOut)[0].weight, 5.0f);
    EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AdjacencyList, ProbesCountScanPosition)
{
    AdjacencyList g(8);
    for (VertexId t = 1; t <= 5; ++t) {
        g.apply_insert(0, {t, 1.0f}, Direction::kOut);
    }
    // Duplicate of the 3rd inserted edge: scan stops after 3 probes.
    const auto r = g.apply_insert(0, {3, 1.0f}, Direction::kOut);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.probes, 3u);
    EXPECT_EQ(r.len_before, 5u);
    // A miss probes the full array.
    const auto miss = g.apply_insert(0, {7, 1.0f}, Direction::kOut);
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(miss.probes, 5u);
}

TEST(AdjacencyList, RemoveExistingAndMissing)
{
    AdjacencyList g(4);
    g.apply_insert(0, {1, 1.0f}, Direction::kOut);
    g.apply_insert(0, {2, 1.0f}, Direction::kOut);
    const auto hit = g.apply_remove(0, 1, Direction::kOut);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_EQ(g.num_edges(), 1u);
    const auto miss = g.apply_remove(0, 9, Direction::kOut);
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AdjacencyList, EnsureVerticesPreservesEdges)
{
    AdjacencyList g(2);
    g.apply_insert(0, {1, 1.0f}, Direction::kOut);
    g.exchange_latest_bid(1, 7);
    g.ensure_vertices(100);
    EXPECT_EQ(g.num_vertices(), 100u);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_EQ(g.latest_bid(1), 7u);
}

TEST(AdjacencyList, LatestBidExchangeReturnsPrevious)
{
    AdjacencyList g(2);
    EXPECT_EQ(g.exchange_latest_bid(0, 5), 0u);
    EXPECT_EQ(g.exchange_latest_bid(0, 6), 5u);
    EXPECT_EQ(g.latest_bid(0), 6u);
}

TEST(AdjacencyList, SameTopologyIsOrderInsensitive)
{
    AdjacencyList a(3);
    AdjacencyList b(3);
    a.apply_insert(0, {1, 1.0f}, Direction::kOut);
    a.apply_insert(0, {2, 1.0f}, Direction::kOut);
    b.apply_insert(0, {2, 1.0f}, Direction::kOut);
    b.apply_insert(0, {1, 1.0f}, Direction::kOut);
    EXPECT_TRUE(same_topology(a, b));
    b.apply_insert(1, {2, 1.0f}, Direction::kOut);
    EXPECT_FALSE(same_topology(a, b));
}

// --------------------------------------------------- degree-aware hash
TEST(DegreeAwareHash, MigratesToHashAtThreshold)
{
    DegreeAwareHash g(2);
    for (VertexId t = 0; t < DahEdgeSet::kHashThreshold - 1; ++t) {
        g.apply_insert(0, {t + 100, 1.0f}, Direction::kOut);
    }
    EXPECT_FALSE(g.edge_set(0, Direction::kOut).hashed());
    g.apply_insert(0, {999, 1.0f}, Direction::kOut);
    EXPECT_TRUE(g.edge_set(0, Direction::kOut).hashed());
    EXPECT_EQ(g.degree(0, Direction::kOut), DahEdgeSet::kHashThreshold);
}

TEST(DegreeAwareHash, DuplicateAccumulatesAcrossMigration)
{
    DegreeAwareHash g(2);
    for (VertexId t = 0; t < 64; ++t) {
        g.apply_insert(0, {t, 1.0f}, Direction::kOut);
    }
    const auto r = g.apply_insert(0, {10, 2.5f}, Direction::kOut);
    EXPECT_TRUE(r.found);
    const auto sorted = g.sorted_edges(0, Direction::kOut);
    const auto it =
        std::find_if(sorted.begin(), sorted.end(),
                     [](const Neighbor& n) { return n.id == 10; });
    ASSERT_NE(it, sorted.end());
    EXPECT_FLOAT_EQ(it->weight, 3.5f);
}

/** Randomized insert/remove against a std::map reference. */
class DahRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DahRandomTest, MatchesReferenceModel)
{
    Rng rng(GetParam());
    DegreeAwareHash g(8);
    std::map<VertexId, float> reference;
    for (int op = 0; op < 4000; ++op) {
        const auto t = static_cast<VertexId>(rng.below(200));
        if (rng.chance(0.3) && !reference.empty()) {
            // Remove a random-ish key (may or may not exist).
            const auto victim = static_cast<VertexId>(rng.below(200));
            const auto r = g.apply_remove(0, victim, Direction::kOut);
            EXPECT_EQ(r.found, reference.erase(victim) > 0);
        } else {
            const float w = static_cast<float>(rng.uniform(0.5, 1.5));
            const auto r = g.apply_insert(0, {t, w}, Direction::kOut);
            EXPECT_EQ(r.found, reference.count(t) > 0);
            reference[t] += w;
        }
    }
    const auto sorted = g.sorted_edges(0, Direction::kOut);
    ASSERT_EQ(sorted.size(), reference.size());
    std::size_t i = 0;
    for (const auto& [id, w] : reference) {
        EXPECT_EQ(sorted[i].id, id);
        EXPECT_NEAR(sorted[i].weight, w, 1e-3);
        ++i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DahRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------- indexed adjacency
TEST(IndexedAdjacency, ProbesMatchLinearScanSemantics)
{
    IndexedAdjacency g(8);
    AdjacencyList ref(8);
    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
        const auto s = static_cast<VertexId>(rng.below(8));
        const auto t = static_cast<VertexId>(rng.below(8));
        const auto a = g.apply_insert(s, {t, 1.0f}, Direction::kOut);
        const auto b = ref.apply_insert(s, {t, 1.0f}, Direction::kOut);
        ASSERT_EQ(a.found, b.found);
        // On insert-only streams the modeled probe counts are identical
        // to the real linear scan's.
        ASSERT_EQ(a.probes, b.probes);
        ASSERT_EQ(a.len_before, b.len_before);
    }
    EXPECT_TRUE(same_topology(g, ref));
}

class IndexedEquivalenceTest : public ::testing::TestWithParam<std::uint64_t>
{
};

/** Seeds from here up run the hub-heavy stream. */
constexpr std::uint64_t kHubSeeds = 100;

TEST_P(IndexedEquivalenceTest, StateMatchesAdjacencyListWithDeletes)
{
    // Uniform seeds draw pairs over 64 vertices.  Hub seeds send half the
    // operations to vertex 0 with neighbors from a 1024-id space, so its
    // position index doubles several times while removes (which swap the
    // last edge into the hole) are interleaved.
    const bool hub_heavy = GetParam() >= kHubSeeds;
    Rng rng(GetParam());
    IndexedAdjacency g(64);
    AdjacencyList ref(64);
    for (int i = 0; i < 5000; ++i) {
        const bool to_hub = hub_heavy && rng.chance(0.5);
        const auto s = to_hub ? VertexId{0}
                              : static_cast<VertexId>(rng.below(64));
        const auto t = static_cast<VertexId>(rng.below(to_hub ? 1024 : 64));
        for (auto dir : {Direction::kOut, Direction::kIn}) {
            // Both structures swap-remove, so the modeled probe count
            // and length match the real scan on every operation.
            const bool remove = rng.chance(0.25);
            ApplyResult a;
            ApplyResult b;
            if (remove) {
                a = g.apply_remove(s, t, dir);
                b = ref.apply_remove(s, t, dir);
            } else {
                const float w = static_cast<float>(rng.uniform(0.5, 1.5));
                a = g.apply_insert(s, {t, w}, dir);
                b = ref.apply_insert(s, {t, w}, dir);
            }
            ASSERT_EQ(a.found, b.found) << "op " << i;
            ASSERT_EQ(a.probes, b.probes) << "op " << i;
            ASSERT_EQ(a.len_before, b.len_before) << "op " << i;
        }
    }
    EXPECT_TRUE(same_topology(g, ref));
    EXPECT_EQ(g.num_edges(), ref.num_edges());
    if (hub_heavy) {
        // Past 256 entries the index has doubled from 4 slots to 512.
        EXPECT_GT(g.degree(0, Direction::kOut), 256u);
        EXPECT_GT(g.degree(0, Direction::kIn), 256u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedEquivalenceTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16,
                                           kHubSeeds + 1, kHubSeeds + 2,
                                           kHubSeeds + 3));

TEST(IndexedAdjacency, RemoveFixesMovedIndexEntry)
{
    IndexedAdjacency g(4);
    g.apply_insert(0, {1, 1.0f}, Direction::kOut);
    g.apply_insert(0, {2, 1.0f}, Direction::kOut);
    g.apply_insert(0, {3, 1.0f}, Direction::kOut);
    // Removing the first entry swaps 3 into its slot; 3 must stay findable
    // there, and the hit must accumulate into the live edge.
    g.apply_remove(0, 1, Direction::kOut);
    const auto r = g.apply_insert(0, {3, 2.0f}, Direction::kOut);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.probes, 1u);
    EXPECT_EQ(g.degree(0, Direction::kOut), 2u);
    EXPECT_EQ(g.edges(0, Direction::kOut)[0], (Neighbor{3, 3.0f}));
}

} // namespace
} // namespace igs::graph

// Additional coverage appended after the first green run: growth
// invariants and argument-validation death tests.
namespace igs::graph {
namespace {

TEST(AdjacencyList, MoveTransfersState)
{
    AdjacencyList a(4);
    a.apply_insert(0, {1, 1.0f}, Direction::kOut);
    a.exchange_latest_bid(3, 5);
    AdjacencyList b(std::move(a));
    EXPECT_EQ(b.num_vertices(), 4u);
    EXPECT_EQ(b.num_edges(), 1u);
    EXPECT_EQ(b.latest_bid(3), 5u);
}

using GraphDeathTest = ::testing::Test;

TEST(GraphDeathTest, OutOfRangeVertexAbortsInDebug)
{
#ifndef NDEBUG
    AdjacencyList g(2);
    EXPECT_DEATH(g.apply_insert(7, {0, 1.0f}, Direction::kOut), "check");
#else
    GTEST_SKIP() << "IGS_DCHECK compiled out in NDEBUG";
#endif
}

} // namespace
} // namespace igs::graph
