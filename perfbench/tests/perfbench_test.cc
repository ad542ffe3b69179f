/**
 * @file
 * Tests of the benchmark's own machinery: the correctness checker must
 * accept a faithful engine run and reject a corrupted reference, and the
 * statistics helpers must follow the ten-samples-beyond rule and match
 * Python's statistics.median / statistics.quantiles(n=4).
 */
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "checker.h"
#include "core/engine.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using igs::StreamEdge;
using igs::stream::EdgeBatch;

/** A small stream with duplicates, deletes and same-batch insert+delete. */
std::vector<EdgeBatch>
small_stream()
{
    std::vector<EdgeBatch> b;
    b.emplace_back(1, std::vector<StreamEdge>{{0, 1, 1.0f, false},
                                              {0, 1, 0.5f, false},
                                              {1, 2, 1.0f, false},
                                              {2, 0, 2.0f, false},
                                              {3, 1, 1.0f, false}});
    b.emplace_back(2, std::vector<StreamEdge>{{1, 2, 0.0f, true},
                                              {2, 3, 1.0f, false},
                                              {2, 3, 0.0f, true},
                                              {0, 1, 0.25f, false}});
    return b;
}

template <typename Engine>
void
ingest_all(Engine& e, const std::vector<EdgeBatch>& batches)
{
    for (const EdgeBatch& b : batches) {
        (void)e.ingest(b);
        if (e.compute_due()) {
            (void)e.take_pending_work();
        }
    }
}

TEST(Checker, ReferenceFollowsBatchSemantics)
{
    ReferenceGraph ref;
    for (const EdgeBatch& b : small_stream()) {
        ref.apply_batch(b.edges());
    }
    // (0,1) accumulated 1 + 0.5 + 0.25; (1,2) deleted; (2,3) inserted and
    // deleted in one batch, so it is gone (inserts apply first).
    const std::vector<FlatEdge> want{{0, 1, 1.75f}, {2, 0, 2.0f}, {3, 1, 1.0f}};
    EXPECT_EQ(ref.sorted_edges(), want);
}

TEST(Checker, AcceptsEngineAndRejectsCorruptedReference)
{
    igs::ThreadPool pool(2);
    igs::core::RealTimeEngine engine(igs::core::EngineConfig{}, 8, pool);
    const auto batches = small_stream();
    ingest_all(engine, batches);
    ReferenceGraph ref;
    for (const EdgeBatch& b : batches) {
        ref.apply_batch(b.edges());
    }
    std::vector<FlatEdge> reference = ref.sorted_edges();
    EXPECT_EQ(check_graph(reference, engine.graph(), "g"), "");

    std::vector<FlatEdge> wrong_weight = reference;
    wrong_weight[0].weight += 1.0f;
    EXPECT_NE(check_graph(wrong_weight, engine.graph(), "g"), "");

    std::vector<FlatEdge> missing = reference;
    missing.pop_back();
    EXPECT_NE(check_graph(missing, engine.graph(), "g"), "");

    std::vector<FlatEdge> extra = reference;
    extra.push_back({7, 7, 1.0f});
    EXPECT_NE(check_graph(extra, engine.graph(), "g"), "");
}

TEST(Checker, WorkloadStreamMatchesOnBothBackends)
{
    // A short slice of the churn workload's stream: deletes, reinserts
    // and duplicate inserts, through both live stores.
    const igs::gen::DeletionStressModel m = [] {
        auto model = churn_model(7);
        model.num_vertices = 512;
        model.build_edges = 2048;
        model.burst = 256;
        return model;
    }();
    igs::gen::DeletionStressGenerator gen(m);
    std::vector<EdgeBatch> batches;
    batches.emplace_back(1, gen.take(m.build_edges));
    for (std::uint64_t id = 2; id <= 9; ++id) {
        batches.emplace_back(id, gen.take(m.burst));
    }
    ReferenceGraph ref;
    for (const EdgeBatch& b : batches) {
        ref.apply_batch(b.edges());
    }
    const std::vector<FlatEdge> reference = ref.sorted_edges();
    igs::ThreadPool pool(3);
    igs::core::RealTimeEngine al(igs::core::EngineConfig{}, m.num_vertices,
                                 pool);
    igs::core::HybridRealTimeEngine hy(igs::core::EngineConfig{},
                                       m.num_vertices, pool);
    ingest_all(al, batches);
    ingest_all(hy, batches);
    EXPECT_EQ(check_graph(reference, al.graph(), "adjacency list"), "");
    EXPECT_EQ(check_graph(reference, hy.graph(), "hybrid"), "");
    EXPECT_EQ(graph_digest(al.graph()), graph_digest(hy.graph()));

    // A reference that missed one burst of the stream must be caught.
    ReferenceGraph short_ref;
    for (const EdgeBatch& b : batches) {
        if (b.id != 5) {
            short_ref.apply_batch(b.edges());
        }
    }
    EXPECT_NE(check_graph(short_ref.sorted_edges(), al.graph(), "g"), "");
}

TEST(Checker, AnalyticsMismatchIsReported)
{
    igs::ThreadPool pool(2);
    igs::core::RealTimeEngine engine(igs::core::EngineConfig{}, 8, pool);
    const auto batches = small_stream();
    ingest_all(engine, batches);
    igs::analytics::incremental::IncrementalAnalytics good(
        analytics_config(igs::core::EngineConfig{}));
    igs::stream::PendingWork all;
    all.epoch = 1;
    for (std::uint32_t v = 0; v < 8; ++v) {
        all.affected.push_back(v);
    }
    (void)good.on_epoch(engine.graph(), all);
    EXPECT_EQ(check_analytics(good, engine.graph()), "");

    // Analytics computed on a different graph must not pass.
    igs::core::RealTimeEngine other(igs::core::EngineConfig{}, 8, pool);
    ingest_all(other, {small_stream()[0]});
    EXPECT_NE(check_analytics(good, other.graph()), "");
}

TEST(Stats, PercentileNeedsTenSamplesBeyond)
{
    EXPECT_EQ(min_samples_for(0.95), 200u);
    EXPECT_EQ(min_samples_for(0.50), 20u);
    std::vector<double> s;
    for (int i = 1; i <= 199; ++i) {
        s.push_back(i);
    }
    EXPECT_FALSE(percentile(s, 0.95).has_value());
    s.push_back(200);
    ASSERT_TRUE(percentile(s, 0.95).has_value());
    // Nearest rank: ceil(0.95 * 200) = 190, ten samples (191..200) beyond.
    EXPECT_EQ(*percentile(s, 0.95), 190.0);
    EXPECT_EQ(*percentile(s, 0.50), 100.0);
    EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.5).has_value());
    EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 0.5).has_value());
}

TEST(Stats, MedianAndQuartilesMatchPython)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    const Quartiles r = quartiles({16, 1, 8, 2, 4});
    EXPECT_DOUBLE_EQ(r.q1, 1.5);
    EXPECT_DOUBLE_EQ(r.q2, 4.0);
    EXPECT_DOUBLE_EQ(r.q3, 12.0);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    const Quartiles t = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(t.q1, 0.75);
    EXPECT_DOUBLE_EQ(t.q2, 1.5);
    EXPECT_DOUBLE_EQ(t.q3, 2.25);
}

} // namespace
} // namespace perfbench
