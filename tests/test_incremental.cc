/**
 * @file
 * Tests for the incremental memoized analytics tier (DESIGN.md §14):
 * DirtySetView semantics, the full-vs-delta input policy, and the
 * randomized equivalence harness — N seeded mixed insert/delete streams
 * driven through the incremental kernels and their from-scratch
 * references on all three storage backends, with SSSP/BFS asserted
 * *exactly* equal and PageRank equal within tolerance every epoch.
 * The adversarial deletion-stress stream (delete bursts,
 * delete-then-reinsert-same-edge) runs through the same harness, and
 * the delta PageRank sweep is pinned against static_pagerank where a
 * memoized contribution could go stale, after a capped round, and on
 * its seed count.
 *
 * Seeds are overridable via $IGS_TEST_SEED and printed on failure
 * (testutil::seed_trace).
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/incremental/analytics.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "gen/deletion_stress.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/dirty_set_view.h"
#include "graph/hybrid_store.h"
#include "graph/snapshot_view.h"
#include "stream/batch.h"
#include "stream/compute_policy.h"
#include "stream/pending.h"

#include "test_support.h"

namespace igs {
namespace {

using analytics::incremental::IncrementalAnalytics;
using analytics::incremental::IncrementalConfig;
using stream::IncrementalPolicy;
using testutil::apply_batch;
using testutil::harness_seeds;
using testutil::seed_trace;
using testutil::tight_pagerank;
using testutil::tight_tuning;

// The dirty-set view is itself a read path over any read path — the
// snapshot included — and DegreeAwareHash now satisfies the concept
// (its edges() view is what made the incremental tier backend-complete).
static_assert(graph::GraphReadPath<graph::DegreeAwareHash>);
static_assert(graph::GraphReadPath<graph::DirtySetView<graph::AdjacencyList>>);
static_assert(
    graph::GraphReadPath<graph::DirtySetView<graph::DegreeAwareHash>>);
static_assert(graph::GraphReadPath<graph::DirtySetView<graph::HybridStore>>);
static_assert(graph::GraphReadPath<graph::DirtySetView<graph::SnapshotView>>);

// ------------------------------------------------------- DirtySetView

TEST(DirtySetView, WrapsReadPathAndAnswersMembership)
{
    graph::AdjacencyList g(8);
    g.apply_insert(1, {3, 2.0f}, Direction::kOut);
    g.apply_insert(3, {1, 2.0f}, Direction::kIn);
    const std::vector<VertexId> dirty{1, 3};
    const auto view = g.dirty_view(dirty);
    EXPECT_EQ(view.num_vertices(), 8u);
    EXPECT_EQ(view.degree(1, Direction::kOut), 1u);
    EXPECT_EQ(view.edges(1, Direction::kOut).front().id, 3u);
    EXPECT_EQ(view.dirty().size(), 2u);
    EXPECT_TRUE(view.is_dirty(1));
    EXPECT_TRUE(view.is_dirty(3));
    EXPECT_FALSE(view.is_dirty(0));
    EXPECT_FALSE(view.is_dirty(7));
    EXPECT_DOUBLE_EQ(view.dirty_fraction(), 2.0 / 8.0);
    EXPECT_EQ(&view.base(), &g);
}

TEST(DirtySetView, EmptyDirtySetAndEmptyGraph)
{
    graph::AdjacencyList g(4);
    const auto view = g.dirty_view({});
    EXPECT_EQ(view.dirty().size(), 0u);
    EXPECT_DOUBLE_EQ(view.dirty_fraction(), 0.0);
    graph::AdjacencyList empty(0);
    EXPECT_DOUBLE_EQ(empty.dirty_view({}).dirty_fraction(), 0.0);
}

// ------------------------------------------------------- input policy

TEST(IncrementalPolicy, MeasureComputesRatios)
{
    stream::PendingWork w;
    w.affected = {1, 2, 3};
    w.inserted.resize(3);
    w.deleted.resize(1);
    const auto s = stream::EpochInputStats::measure(w, 30);
    EXPECT_EQ(s.dirty_vertices, 3u);
    EXPECT_EQ(s.inserted, 3u);
    EXPECT_EQ(s.deleted, 1u);
    EXPECT_DOUBLE_EQ(s.dirty_fraction, 0.1);
    EXPECT_DOUBLE_EQ(s.delete_ratio, 0.25);
    // Degenerate inputs don't divide by zero.
    const auto e = stream::EpochInputStats::measure({}, 0);
    EXPECT_DOUBLE_EQ(e.dirty_fraction, 0.0);
    EXPECT_DOUBLE_EQ(e.delete_ratio, 0.0);
}

TEST(IncrementalPolicy, AutoKeysOnDirtyFractionAndDeleteRatio)
{
    stream::IncrementalPolicyParams p;
    p.policy = IncrementalPolicy::kAuto;
    stream::EpochInputStats s;
    s.dirty_fraction = 0.1;
    s.delete_ratio = 0.1;
    EXPECT_TRUE(stream::use_delta(p, s));
    s.dirty_fraction = p.max_dirty_fraction; // boundary is inclusive
    EXPECT_TRUE(stream::use_delta(p, s));
    s.dirty_fraction = p.max_dirty_fraction + 0.01;
    EXPECT_FALSE(stream::use_delta(p, s));
    s.dirty_fraction = 0.1;
    s.delete_ratio = p.max_delete_ratio + 0.01;
    EXPECT_FALSE(stream::use_delta(p, s));
    // The oblivious policies ignore the statistics entirely.
    p.policy = IncrementalPolicy::kFullRerun;
    EXPECT_FALSE(stream::use_delta(p, s));
    p.policy = IncrementalPolicy::kDeltaPropagate;
    EXPECT_TRUE(stream::use_delta(p, s));
    EXPECT_STREQ(to_string(IncrementalPolicy::kAuto), "auto");
}

// ------------------------------------------- randomized equivalence

IncrementalConfig
harness_config(IncrementalPolicy policy)
{
    IncrementalConfig cfg;
    cfg.policy.policy = policy;
    cfg.pagerank = tight_pagerank();
    return cfg;
}

/**
 * Drive `epochs` of operations through one shared graph, comparing an
 * always-delta bundle against an always-full bundle every epoch: BFS
 * and SSSP must match the from-scratch kernels exactly (least-fixpoint
 * argument, analytics/incremental/sssp.h), PageRank within tolerance.
 */
template <typename Graph>
void
expect_incremental_matches_full(
    Graph& g, const std::vector<std::vector<StreamEdge>>& epochs)
{
    IncrementalAnalytics inc(
        harness_config(IncrementalPolicy::kDeltaPropagate));
    IncrementalAnalytics ref(harness_config(IncrementalPolicy::kFullRerun));
    stream::PendingAccumulator acc;
    EpochId epoch = 0;
    for (const auto& ops : epochs) {
        apply_batch(g, ops);
        acc.note_batch(stream::EdgeBatch(epoch + 1, ops));
        const auto work = acc.hand_off(++epoch);
        (void)inc.on_epoch(g, work);
        (void)ref.on_epoch(g, work);
        SCOPED_TRACE("epoch=" + std::to_string(epoch));
        EXPECT_EQ(inc.sssp().distances(), ref.sssp().distances());
        EXPECT_EQ(inc.bfs().hops(), ref.bfs().hops());
        // Anchor the memoized reference itself against the stateless
        // kernels (a bug shared by full_rerun and delta would otherwise
        // cancel out).
        EXPECT_EQ(ref.sssp().distances(), analytics::static_sssp(g, 0));
        EXPECT_EQ(ref.bfs().hops(), analytics::bfs_distances(g, 0));
        const auto& ra = inc.pagerank().ranks();
        const auto& rb = ref.pagerank().ranks();
        ASSERT_EQ(ra.size(), rb.size());
        for (std::size_t v = 0; v < ra.size(); ++v) {
            EXPECT_NEAR(ra[v], rb[v], 1e-8) << "vertex " << v;
        }
    }
    // The delta bundle must actually have exercised the delta path
    // (first epoch is always full — the memo state starts cold).
    EXPECT_EQ(ref.delta_epochs(), 0u);
    EXPECT_GT(inc.delta_epochs(), 0u);
    EXPECT_LT(inc.delta_epochs(), inc.epochs());
}

std::vector<std::vector<StreamEdge>>
mixed_epochs(std::uint64_t seed, std::size_t epochs, std::size_t ops)
{
    gen::StreamModel m;
    m.num_vertices = 300;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.4;
    m.delete_fraction = 0.3;
    m.weighted = true;
    m.seed = seed;
    gen::EdgeStreamGenerator generator(m);
    std::vector<std::vector<StreamEdge>> out;
    out.reserve(epochs);
    for (std::size_t i = 0; i < epochs; ++i) {
        out.push_back(generator.take(ops));
    }
    return out;
}

TEST(IncrementalEquivalence, AdjacencyListRandomizedStreams)
{
    for (const std::uint64_t seed : harness_seeds({101, 102, 103})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::AdjacencyList g(300);
        const auto epochs = mixed_epochs(seed, 8, 250);
        expect_incremental_matches_full(g, epochs);
    }
}

TEST(IncrementalEquivalence, DegreeAwareHashRandomizedStreams)
{
    for (const std::uint64_t seed : harness_seeds({111, 112, 113})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::DegreeAwareHash g(300, tight_tuning());
        const auto epochs = mixed_epochs(seed, 8, 250);
        expect_incremental_matches_full(g, epochs);
    }
}

TEST(IncrementalEquivalence, HybridStoreRandomizedStreams)
{
    for (const std::uint64_t seed : harness_seeds({121, 122, 123})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::HybridStore g(300, tight_tuning());
        const auto epochs = mixed_epochs(seed, 8, 250);
        expect_incremental_matches_full(g, epochs);
    }
}

// --------------------------------------------- deletion-stress streams

std::vector<std::vector<StreamEdge>>
stress_epochs(std::uint64_t seed, std::size_t epochs, std::size_t ops)
{
    gen::DeletionStressModel m;
    m.num_vertices = 256;
    m.build_edges = 1024;
    m.burst = ops; // burst == batch: whole epochs of pure deletion
    m.seed = seed;
    gen::DeletionStressGenerator generator(m);
    std::vector<std::vector<StreamEdge>> out;
    out.reserve(epochs);
    for (std::size_t i = 0; i < epochs; ++i) {
        out.push_back(generator.take(ops));
    }
    return out;
}

TEST(DeletionStressGenerator, PhasesProduceDeleteBurstsAndReinserts)
{
    const std::size_t ops = 128;
    const auto epochs = stress_epochs(7, 14, ops);
    // Epochs 0..7 build (1024/128); then delete and reinsert alternate.
    std::size_t pure_delete_epochs = 0;
    std::size_t reinserted = 0;
    std::vector<StreamEdge> deleted;
    for (const auto& batch : epochs) {
        std::size_t deletes = 0;
        for (const StreamEdge& e : batch) {
            if (e.is_delete) {
                ++deletes;
                deleted.push_back(e);
            } else {
                for (const StreamEdge& d : deleted) {
                    if (d.src == e.src && d.dst == e.dst &&
                        d.weight == e.weight) {
                        ++reinserted;
                        break;
                    }
                }
            }
            // Dyadic weights: scaling by 64 must give exact integers.
            const float scaled = e.weight * 64.0f;
            EXPECT_EQ(scaled, std::floor(scaled));
            EXPECT_GE(e.weight, 0.5f);
            EXPECT_LT(e.weight, 1.5f);
        }
        if (deletes == batch.size()) {
            ++pure_delete_epochs;
        }
    }
    // The adversarial shape actually materialized: whole-batch delete
    // bursts and same-edge reinsertions.
    EXPECT_GE(pure_delete_epochs, 3u);
    EXPECT_GT(reinserted, 0u);
}

TEST(IncrementalEquivalence, DeletionStressAdjacencyList)
{
    for (const std::uint64_t seed : harness_seeds({131, 132})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::AdjacencyList g(256);
        expect_incremental_matches_full(g, stress_epochs(seed, 16, 128));
    }
}

TEST(IncrementalEquivalence, DeletionStressHybridStore)
{
    for (const std::uint64_t seed : harness_seeds({141, 142})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::HybridStore g(256, tight_tuning());
        expect_incremental_matches_full(g, stress_epochs(seed, 16, 128));
    }
}

// ------------------------------------------ delta PageRank sweep kernel

/** Every rank within 1e-8 of a tight from-scratch static_pagerank. */
template <typename Graph>
void
expect_ranks_match_static(const std::vector<double>& ranks, const Graph& g)
{
    const std::vector<double> want =
        analytics::static_pagerank(g, tight_pagerank());
    ASSERT_EQ(ranks.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
        EXPECT_NEAR(ranks[v], want[v], 1e-8) << "vertex " << v;
    }
}

/** Largest |rank - static_pagerank| over every vertex. */
template <typename Graph>
double
max_rank_error(const std::vector<double>& ranks, const Graph& g)
{
    const std::vector<double> want =
        analytics::static_pagerank(g, tight_pagerank());
    double worst = 0.0;
    for (std::size_t v = 0; v < want.size(); ++v) {
        worst = std::max(worst, std::abs(ranks[v] - want[v]));
    }
    return worst;
}

/**
 * The churn workload's shape at test size: a build-up prefix in one
 * epoch, then alternating whole-batch delete bursts and reinsert bursts.
 * Every epoch after the first runs the delta kernel at the equivalence
 * harness's tolerance and must land on the from-scratch fixpoint.
 */
template <typename Graph>
void
expect_churn_delta_matches_static(Graph& g, std::uint64_t seed)
{
    gen::DeletionStressModel m;
    m.num_vertices = 512;
    m.build_edges = 2048;
    m.burst = 128;
    m.seed = seed;
    gen::DeletionStressGenerator generator(m);
    IncrementalConfig cfg = harness_config(IncrementalPolicy::kDeltaPropagate);
    cfg.run_sssp = false;
    cfg.run_bfs = false;
    IncrementalAnalytics inc(cfg);
    stream::PendingAccumulator acc;
    constexpr EpochId kEpochs = 13;
    for (EpochId epoch = 1; epoch <= kEpochs; ++epoch) {
        const auto ops = generator.take(epoch == 1 ? m.build_edges : m.burst);
        apply_batch(g, ops);
        acc.note_batch(stream::EdgeBatch(epoch, ops));
        (void)inc.on_epoch(g, acc.hand_off(epoch));
        SCOPED_TRACE("epoch=" + std::to_string(epoch));
        expect_ranks_match_static(inc.pagerank().ranks(), g);
    }
    EXPECT_EQ(inc.delta_epochs(), kEpochs - 1);
}

TEST(IncrementalPageRank, ChurnStreamDeltaMatchesStaticOnAllBackends)
{
    for (const std::uint64_t seed : harness_seeds({151, 152})) {
        SCOPED_TRACE(seed_trace(seed));
        {
            graph::AdjacencyList g(512);
            expect_churn_delta_matches_static(g, seed);
        }
        {
            graph::DegreeAwareHash g(512, tight_tuning());
            expect_churn_delta_matches_static(g, seed);
        }
        {
            graph::HybridStore g(512, tight_tuning());
            expect_churn_delta_matches_static(g, seed);
        }
    }
}

/** A kernel over a fixed-size graph, driven one edge-op epoch at a time. */
struct DeltaDriver {
    graph::AdjacencyList g;
    analytics::incremental::PageRank pr;

    explicit DeltaDriver(std::size_t n,
                         const analytics::PageRankParams& params =
                             tight_pagerank())
        : g(n), pr(params)
    {
    }

    analytics::ComputeStats
    apply(const std::vector<StreamEdge>& ops)
    {
        apply_batch(g, ops);
        std::vector<VertexId> dirty;
        for (const StreamEdge& e : ops) {
            dirty.push_back(e.src);
            dirty.push_back(e.dst);
        }
        std::sort(dirty.begin(), dirty.end());
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        return pr.delta_propagate(g.dirty_view(dirty));
    }
};

TEST(IncrementalPageRank, VertexLosingAndRegainingItsLastOutEdge)
{
    // 5 feeds 2 and 3; 2 and 3 feed 5 back, so 5's rank does not move
    // when only its out-edges change.  2 < 5 pulls 5's contribution in
    // the sweep before 5 itself is visited: a contribution left at its
    // old out-degree would go unnoticed.
    DeltaDriver d(8);
    apply_batch(d.g, {{5, 2, 1.0f, false},
                      {5, 3, 1.0f, false},
                      {2, 5, 1.0f, false},
                      {3, 5, 1.0f, false},
                      {1, 5, 1.0f, false}});
    d.pr.full_rerun(d.g);
    d.apply({{5, 3, 1.0f, true}});
    expect_ranks_match_static(d.pr.ranks(), d.g);
    d.apply({{5, 2, 1.0f, true}}); // 5 loses its last out-edge
    expect_ranks_match_static(d.pr.ranks(), d.g);
    d.apply({{5, 2, 1.0f, false}}); // and regains it
    expect_ranks_match_static(d.pr.ranks(), d.g);
    d.apply({{5, 4, 1.0f, false}, {5, 6, 1.0f, false}});
    expect_ranks_match_static(d.pr.ranks(), d.g);
}

TEST(IncrementalPageRank, SelfLoopChangesOwnContribution)
{
    DeltaDriver d(6);
    apply_batch(d.g, {{4, 1, 1.0f, false},
                      {1, 4, 1.0f, false},
                      {0, 4, 1.0f, false},
                      {4, 2, 1.0f, false}});
    d.pr.full_rerun(d.g);
    d.apply({{4, 4, 1.0f, false}}); // 4 now pulls its own contribution
    expect_ranks_match_static(d.pr.ranks(), d.g);
    d.apply({{4, 3, 1.0f, false}});
    expect_ranks_match_static(d.pr.ranks(), d.g);
    d.apply({{4, 4, 1.0f, true}});
    expect_ranks_match_static(d.pr.ranks(), d.g);
}

TEST(IncrementalPageRank, AlternatingFullAndDeltaEpochs)
{
    for (const std::uint64_t seed : harness_seeds({161, 162})) {
        SCOPED_TRACE(seed_trace(seed));
        DeltaDriver d(300);
        const auto epochs = mixed_epochs(seed, 10, 120);
        d.pr.full_rerun(d.g);
        for (std::size_t i = 0; i < epochs.size(); ++i) {
            SCOPED_TRACE("epoch=" + std::to_string(i));
            if (i % 2 == 0) {
                apply_batch(d.g, epochs[i]);
                d.pr.full_rerun(d.g); // the memo must be rebuilt here
            } else {
                d.apply(epochs[i]);
            }
            expect_ranks_match_static(d.pr.ranks(), d.g);
        }
    }
}

TEST(IncrementalPageRank, VertexSpaceGrowthRebuildsContributions)
{
    analytics::incremental::PageRank pr(tight_pagerank());
    graph::AdjacencyList small(4);
    apply_batch(small, {{0, 1, 1.0f, false}, {1, 2, 1.0f, false}});
    pr.full_rerun(small);
    graph::AdjacencyList big(9);
    apply_batch(big, {{0, 1, 1.0f, false},
                      {1, 2, 1.0f, false},
                      {7, 1, 1.0f, false},
                      {2, 7, 1.0f, false}});
    const std::vector<VertexId> grown{2, 7};
    pr.delta_propagate(big.dirty_view(grown)); // falls back to full
    expect_ranks_match_static(pr.ranks(), big);
    // A delta round on the grown space pulls the rebuilt contributions.
    apply_batch(big, {{8, 0, 1.0f, false}});
    const std::vector<VertexId> dirty{0, 8};
    const auto stats = pr.delta_propagate(big.dirty_view(dirty));
    EXPECT_GT(stats.seeds, 0u);
    expect_ranks_match_static(pr.ranks(), big);
}

TEST(IncrementalPageRank, CappedRoundsResumeTheirLeftoverFrontier)
{
    // A descending chain 20 -> 19 -> ... -> 0: an ascending sweep moves a
    // change at the top down one hop per iteration.
    analytics::PageRankParams capped = tight_pagerank();
    capped.max_iterations = 1;
    DeltaDriver d(21, capped);
    std::vector<StreamEdge> chain;
    for (VertexId v = 0; v < 20; ++v) {
        chain.push_back({v + 1, v, 1.0f, false});
    }
    apply_batch(d.g, chain);
    d.pr.full_rerun(d.g);

    const auto first = d.apply({{0, 20, 1.0f, false}});
    EXPECT_EQ(first.iterations, 1u);
    EXPECT_GT(max_rank_error(d.pr.ranks(), d.g), 1e-6);

    // Nothing new is dirty; each later round resumes the frontier the one
    // before it stopped on, until a round finds no frontier left.
    analytics::ComputeStats last = first;
    int rounds = 0;
    for (; rounds < 5000 && last.activations > 0; ++rounds) {
        last = d.apply({});
    }
    ASSERT_EQ(last.activations, 0u) << "still propagating after " << rounds
                                    << " capped rounds";
    EXPECT_GT(rounds, 1);
    EXPECT_EQ(last.seeds, 0u);
    EXPECT_EQ(last.iterations, 0u);
    expect_ranks_match_static(d.pr.ranks(), d.g);
}

TEST(IncrementalPageRank, SeedsAreDirtySetAndItsOutNeighbors)
{
    for (const std::uint64_t seed : harness_seeds({171, 172, 173})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::AdjacencyList g(300);
        const auto epochs = mixed_epochs(seed, 3, 200);
        analytics::incremental::PageRank pr(tight_pagerank());
        apply_batch(g, epochs[0]);
        pr.full_rerun(g);
        stream::PendingAccumulator acc;
        for (EpochId epoch = 1; epoch < epochs.size(); ++epoch) {
            apply_batch(g, epochs[epoch]);
            acc.note_batch(stream::EdgeBatch(epoch, epochs[epoch]));
            const auto work = acc.hand_off(epoch);
            std::vector<bool> expected(g.num_vertices(), false);
            for (const VertexId v : work.affected) {
                expected[v] = true;
                for (const Neighbor& w : g.edges(v, Direction::kOut)) {
                    expected[w.id] = true;
                }
            }
            const auto stats = pr.delta_propagate(g.dirty_view(work.affected));
            EXPECT_EQ(stats.seeds, static_cast<std::uint64_t>(std::count(
                                       expected.begin(), expected.end(), true)));
            expect_ranks_match_static(pr.ranks(), g);
        }
    }
}

// ------------------------------------------------- policy integration

TEST(IncrementalAnalyticsBundle, FirstEpochIsAlwaysFull)
{
    graph::AdjacencyList g(64);
    IncrementalAnalytics a(
        harness_config(IncrementalPolicy::kDeltaPropagate));
    std::vector<StreamEdge> ops{{1, 2, 1.0f, false}};
    apply_batch(g, ops);
    stream::PendingAccumulator acc;
    acc.note_batch(stream::EdgeBatch(1, ops));
    const auto d = a.on_epoch(g, acc.hand_off(1));
    EXPECT_FALSE(d.delta); // cold state: no baseline to correct
    EXPECT_EQ(a.epochs(), 1u);
    EXPECT_EQ(a.delta_epochs(), 0u);
    EXPECT_TRUE(a.pagerank().warm());
}

TEST(IncrementalAnalyticsBundle, AutoChoosesPerEpochFromBatchStats)
{
    graph::AdjacencyList g(2000);
    IncrementalAnalytics a(harness_config(IncrementalPolicy::kAuto));
    stream::PendingAccumulator acc;
    EpochId epoch = 0;
    const auto run = [&](const std::vector<StreamEdge>& ops) {
        apply_batch(g, ops);
        acc.note_batch(stream::EdgeBatch(epoch + 1, ops));
        return a.on_epoch(g, acc.hand_off(++epoch));
    };

    // Epoch 1: a build batch — full regardless (cold).
    std::vector<StreamEdge> build;
    for (VertexId v = 0; v < 600; ++v) {
        build.push_back({v, v + 1, 1.0f, false});
    }
    EXPECT_FALSE(run(build).delta);

    // Epoch 2: a few inserts — tiny dirty fraction, no deletes: delta.
    const auto d2 = run({{5, 700, 1.0f, false}, {6, 701, 1.0f, false}});
    EXPECT_TRUE(d2.delta);
    EXPECT_LE(d2.stats.dirty_fraction, 0.25);

    // Epoch 3: delete-heavy batch — ratio above threshold: full rerun.
    const auto d3 = run({{5, 700, 1.0f, true},
                         {6, 701, 1.0f, true},
                         {0, 1, 1.0f, true},
                         {7, 702, 1.0f, false}});
    EXPECT_DOUBLE_EQ(d3.stats.delete_ratio, 0.75);
    EXPECT_FALSE(d3.delta);

    // Epoch 4: quiet again: back to delta.
    EXPECT_TRUE(run({{8, 703, 1.0f, false}}).delta);
    EXPECT_EQ(a.epochs(), 4u);
    EXPECT_EQ(a.delta_epochs(), 2u);
}

TEST(IncrementalPageRank, DeltaFallsBackToFullWhenVertexSpaceChanges)
{
    analytics::incremental::PageRank pr(tight_pagerank());
    graph::AdjacencyList small(4);
    small.apply_insert(0, {1, 1.0f}, Direction::kOut);
    small.apply_insert(1, {0, 1.0f}, Direction::kIn);
    pr.full_rerun(small);
    ASSERT_EQ(pr.ranks().size(), 4u);

    // A bigger graph shifts the (1-d)/|V| base term for every vertex:
    // delta_propagate must detect the size change and rerun fully.
    graph::AdjacencyList big(6);
    big.apply_insert(0, {1, 1.0f}, Direction::kOut);
    big.apply_insert(1, {0, 1.0f}, Direction::kIn);
    const std::vector<VertexId> dirty{0, 1};
    pr.delta_propagate(big.dirty_view(dirty));
    analytics::incremental::PageRank fresh(tight_pagerank());
    fresh.full_rerun(big);
    EXPECT_EQ(pr.ranks(), fresh.ranks());
}

TEST(IncrementalAnalyticsBundle, DeltaDoesLessTraversalWorkWhenQuiet)
{
    // A small dirty set on a warm state must touch far fewer edges than
    // a full rerun — the point of the whole tier.  (The bench pins the
    // magnitude; this guards the direction.)
    graph::AdjacencyList g(500);
    const auto epochs = mixed_epochs(201, 2, 1500);
    // Default pagerank tolerance (1e-4): this test compares *work*, not
    // rank values, and at equivalence-harness tolerances (1e-12) the
    // residual wave legitimately spreads graph-wide.
    IncrementalConfig delta_cfg;
    delta_cfg.policy.policy = IncrementalPolicy::kDeltaPropagate;
    IncrementalConfig full_cfg;
    full_cfg.policy.policy = IncrementalPolicy::kFullRerun;
    IncrementalAnalytics inc(delta_cfg);
    IncrementalAnalytics ref(full_cfg);
    stream::PendingAccumulator acc;
    EpochId epoch = 0;
    for (const auto& ops : epochs) {
        apply_batch(g, ops);
        acc.note_batch(stream::EdgeBatch(epoch + 1, ops));
        const auto work = acc.hand_off(++epoch);
        (void)inc.on_epoch(g, work);
        (void)ref.on_epoch(g, work);
    }
    // Now a tiny third epoch.
    std::vector<StreamEdge> quiet{{3, 4, 1.0f, false}};
    apply_batch(g, quiet);
    acc.note_batch(stream::EdgeBatch(epoch + 1, quiet));
    const auto work = acc.hand_off(++epoch);
    const auto di = inc.on_epoch(g, work);
    const auto dr = ref.on_epoch(g, work);
    EXPECT_TRUE(di.delta);
    EXPECT_FALSE(dr.delta);
    EXPECT_LT(di.work.traversals, dr.work.traversals / 4);
    EXPECT_GT(di.work.seeds, 0u);
    EXPECT_EQ(dr.work.seeds, 0u);
    // Rounds are attributed identically: one per kernel per epoch.
    EXPECT_EQ(di.work.rounds, dr.work.rounds);
    EXPECT_EQ(inc.meter().last_epoch(), epoch);
}

} // namespace
} // namespace igs
