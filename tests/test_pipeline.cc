/**
 * @file
 * Tests for the epoch-versioned GraphStore and the update/compute
 * pipeline (DESIGN.md §11): snapshot publication correctness, depth-1
 * equivalence with the pre-pipeline engine, depth-2 result equality with
 * the serial run, backpressure accounting, per-epoch PendingWork
 * hand-off, and the sim frontend's modeled overlap.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/compute_meter.h"
#include "analytics/incremental/analytics.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/graph_store.h"
#include "graph/indexed_adjacency.h"
#include "graph/snapshot_view.h"
#include "sim/sim_engine.h"
#include "stream/pending.h"

#include "test_support.h"

namespace igs {
namespace {

using testutil::expect_reports_equal;
using testutil::expect_snapshot_matches_live;
using testutil::pipeline_batch;
using testutil::pipeline_config;

// Every storage backend satisfies the read-path concept; the live stores
// and the snapshot additionally carry the epoch token.
static_assert(graph::GraphReadPath<graph::AdjacencyList>);
static_assert(graph::GraphReadPath<graph::IndexedAdjacency>);
static_assert(graph::GraphReadPath<graph::SnapshotView>);
static_assert(graph::GraphStore<graph::AdjacencyList>);
static_assert(graph::GraphStore<graph::IndexedAdjacency>);
static_assert(graph::GraphStore<graph::SnapshotView>);

// ----------------------------------------------------------- snapshots
TEST(SnapshotStore, FirstPublishCopiesWholeGraph)
{
    graph::AdjacencyList live(8);
    live.apply_insert(1, {2, 1.0f}, Direction::kOut);
    live.apply_insert(2, {1, 1.0f}, Direction::kIn);
    live.apply_insert(3, {4, 2.5f}, Direction::kOut);
    live.apply_insert(4, {3, 2.5f}, Direction::kIn);
    live.advance_epoch();

    graph::SnapshotStore store;
    // Empty dirty set: the first publication must still copy everything.
    const auto ps = store.publish(live, {});
    EXPECT_EQ(ps.epoch, 1u);
    EXPECT_EQ(ps.dirty_vertices, 8u);
    EXPECT_EQ(ps.copied_edges, 4u);
    EXPECT_EQ(ps.grown_vertices, 8u);
    expect_snapshot_matches_live(store.view(), live);
    EXPECT_EQ(store.view().epoch(), 1u);
}

TEST(SnapshotStore, IncrementalPublishCopiesOnlyDirtyVertices)
{
    graph::AdjacencyList live(6);
    live.apply_insert(0, {1, 1.0f}, Direction::kOut);
    live.apply_insert(1, {0, 1.0f}, Direction::kIn);
    live.advance_epoch();
    graph::SnapshotStore store;
    (void)store.publish(live, {});

    // Mutate vertices 2 and 3 only; vertex 0/1 snapshots must survive a
    // publication whose dirty set excludes them.
    live.apply_insert(2, {3, 4.0f}, Direction::kOut);
    live.apply_insert(3, {2, 4.0f}, Direction::kIn);
    live.advance_epoch();
    const std::vector<VertexId> dirty{2, 3};
    const auto ps = store.publish(live, dirty);
    EXPECT_EQ(ps.epoch, 2u);
    EXPECT_EQ(ps.dirty_vertices, 2u);
    EXPECT_EQ(ps.copied_edges, 2u); // one out-entry + one in-entry
    EXPECT_EQ(ps.grown_vertices, 0u);
    expect_snapshot_matches_live(store.view(), live);

    // A stale dirty set misses vertex 4's new edge: the snapshot must NOT
    // pick it up — proof that publication copies only what it is told.
    live.apply_insert(4, {5, 1.0f}, Direction::kOut);
    live.advance_epoch();
    (void)store.publish(live, dirty);
    EXPECT_EQ(store.view().degree(4, Direction::kOut), 0u);
    EXPECT_EQ(live.degree(4, Direction::kOut), 1u);
}

TEST(SnapshotStore, DirtyIdsBeyondLiveVertexSpaceAreIgnored)
{
    graph::AdjacencyList live(4);
    live.advance_epoch();
    graph::SnapshotStore store;
    (void)store.publish(live, {});
    live.advance_epoch();
    const std::vector<VertexId> dirty{2, 17, 400};
    const auto ps = store.publish(live, dirty);
    EXPECT_EQ(ps.copied_edges, 0u);
    EXPECT_EQ(store.view().num_vertices(), 4u);
}

// ----------------------------------------------------- pending hand-off
TEST(PendingAccumulator, HandOffOnEmptyAccumulatorIsEmptyButStamped)
{
    stream::PendingAccumulator acc;
    EXPECT_TRUE(acc.empty());
    const auto w = acc.hand_off(7);
    EXPECT_TRUE(w.affected.empty());
    EXPECT_TRUE(w.inserted.empty());
    EXPECT_TRUE(w.deleted.empty());
    EXPECT_EQ(w.batches, 0u);
    EXPECT_EQ(w.epoch, 7u);
    // Legacy epochless drain on the (still empty) accumulator.
    const auto legacy = acc.take();
    EXPECT_EQ(legacy.epoch, 0u);
    EXPECT_EQ(legacy.batches, 0u);
    EXPECT_TRUE(acc.empty());
}

TEST(PendingAccumulator, DeleteThenInsertOfSameEdgeWithinAggregatedWindow)
{
    // OCA aggregates two batches into one compute round.  Batch 1 deletes
    // (5,6); batch 2 re-inserts it.  The hand-off must preserve both
    // modifications (the compute phase sees the net effect through the
    // snapshot; incremental SSSP needs both lists to trim and re-relax).
    stream::PendingAccumulator acc;
    stream::EdgeBatch b1(1, {{5, 6, 1.0f, /*is_delete=*/true}});
    stream::EdgeBatch b2(2, {{5, 6, 2.0f, /*is_delete=*/false}});
    acc.note_batch(b1);
    EXPECT_FALSE(acc.empty());
    acc.note_batch(b2);
    const auto w = acc.hand_off(3);
    EXPECT_EQ(w.batches, 2u);
    EXPECT_EQ(w.epoch, 3u);
    ASSERT_EQ(w.deleted.size(), 1u);
    ASSERT_EQ(w.inserted.size(), 1u);
    EXPECT_TRUE(w.deleted[0].is_delete);
    EXPECT_EQ(w.inserted[0].weight, 2.0f);
    // Affected covers both endpoints once despite four mentions.
    EXPECT_EQ(w.affected, (std::vector<VertexId>{5, 6}));
    // The accumulator reset: a following window starts clean.
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.pending_batches(), 0u);
}

/** The hand-off's contract for `affected`: std::sort + std::unique. */
std::vector<VertexId>
sort_unique_oracle(const std::vector<stream::EdgeBatch>& batches)
{
    std::vector<VertexId> ids;
    for (const auto& b : batches) {
        for (const StreamEdge& e : b.edges()) {
            ids.push_back(e.src);
            ids.push_back(e.dst);
        }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

/** Random batch of `n` edges with endpoints in [lo, lo + span). */
stream::EdgeBatch
random_batch(std::uint64_t bid, Rng& rng, std::size_t n, VertexId lo,
             std::uint64_t span)
{
    std::vector<StreamEdge> edges;
    for (std::size_t i = 0; i < n; ++i) {
        edges.push_back({static_cast<VertexId>(lo + rng.below(span)),
                         static_cast<VertexId>(lo + rng.below(span)), 1.0f,
                         rng.chance(0.2)});
    }
    return stream::EdgeBatch(bid, std::move(edges));
}

/** Hand `batches` off as one epoch and check every list of the work. */
void
expect_hand_off_matches_oracle(const std::vector<stream::EdgeBatch>& batches)
{
    stream::PendingAccumulator acc;
    std::vector<StreamEdge> inserted;
    std::vector<StreamEdge> deleted;
    for (const auto& b : batches) {
        acc.note_batch(b);
        for (const StreamEdge& e : b.edges()) {
            (e.is_delete ? deleted : inserted).push_back(e);
        }
    }
    const auto w = acc.hand_off(9);
    EXPECT_EQ(w.affected, sort_unique_oracle(batches));
    EXPECT_EQ(w.batches, batches.size());
    EXPECT_EQ(w.epoch, 9u);
    ASSERT_EQ(w.inserted.size(), inserted.size());
    ASSERT_EQ(w.deleted.size(), deleted.size());
    for (std::size_t i = 0; i < inserted.size(); ++i) {
        EXPECT_EQ(w.inserted[i].src, inserted[i].src);
        EXPECT_EQ(w.inserted[i].dst, inserted[i].dst);
    }
    for (std::size_t i = 0; i < deleted.size(); ++i) {
        EXPECT_EQ(w.deleted[i].src, deleted[i].src);
        EXPECT_EQ(w.deleted[i].dst, deleted[i].dst);
    }
    EXPECT_TRUE(acc.empty());
    EXPECT_TRUE(acc.hand_off(10).affected.empty());
}

TEST(PendingAccumulator, AffectedMatchesSortUniqueOnRandomBatches)
{
    Rng rng(0xaffec7);
    // Sizes straddle the radix plan's narrow/wide digit switch (4096
    // ids); spans run from heavy duplication to nearly all distinct and
    // from one pass up to the full 32-bit key range.
    const std::size_t sizes[] = {1, 2, 3, 100, 2047, 2048, 3000, 20000};
    const std::uint64_t spans[] = {1, 2, 300, 70000, 1ull << 20,
                                   1ull << 32};
    for (std::size_t n : sizes) {
        for (std::uint64_t span : spans) {
            expect_hand_off_matches_oracle(
                {random_batch(1, rng, n, 0, span)});
        }
    }
}

TEST(PendingAccumulator, AffectedHandlesIdsNearTheTopOfTheIdSpace)
{
    Rng rng(0x7095);
    const VertexId top = 0xFFFFFFFEu;
    expect_hand_off_matches_oracle({stream::EdgeBatch(
        1, {{top, top - 1, 1.0f, false}, {0, top, 1.0f, false}})});
    for (std::uint64_t span : {2ull, 64ull, 5000ull}) {
        for (std::size_t n : {5ul, 3000ul, 9000ul}) {
            expect_hand_off_matches_oracle({random_batch(
                1, rng, n, static_cast<VertexId>(top - span + 1), span)});
        }
    }
}

TEST(PendingAccumulator, AllDuplicateBatchCollapsesToItsEndpoints)
{
    std::vector<StreamEdge> same(5000, StreamEdge{42, 42, 1.0f, false});
    expect_hand_off_matches_oracle({stream::EdgeBatch(1, same)});
    std::vector<StreamEdge> pair(6000, StreamEdge{0xFFFFFFFEu, 7, 1.0f,
                                                  true});
    expect_hand_off_matches_oracle({stream::EdgeBatch(1, pair)});
}

TEST(PendingAccumulator, EmptyHandOffsStayEmpty)
{
    expect_hand_off_matches_oracle({});
    expect_hand_off_matches_oracle({stream::EdgeBatch(1, {})});
    expect_hand_off_matches_oracle(
        {stream::EdgeBatch(1, {}), stream::EdgeBatch(2, {})});
}

TEST(PendingAccumulator, OcaAggregatedEpochsDedupeAcrossBothBatches)
{
    // Under OCA one compute round aggregates two batches: ids repeated
    // across the two must still appear once, in order, and a following
    // epoch starts from nothing.
    Rng rng(0x0ca2);
    stream::PendingAccumulator acc;
    for (int epoch = 1; epoch <= 6; ++epoch) {
        const std::size_t n = 500 + rng.below(6000);
        const std::uint64_t span = 1 + rng.below(1u << 18);
        std::vector<stream::EdgeBatch> batches{
            random_batch(2 * epoch - 1, rng, n, 0, span),
            random_batch(2 * epoch, rng, n / 2, 0, span)};
        acc.note_batch(batches[0]);
        acc.note_batch(batches[1]);
        EXPECT_EQ(acc.pending_batches(), 2u);
        const auto w = acc.hand_off(epoch);
        EXPECT_EQ(w.batches, 2u);
        EXPECT_EQ(w.affected, sort_unique_oracle(batches)) << epoch;
        EXPECT_EQ(w.inserted.size() + w.deleted.size(), n + n / 2);
        EXPECT_TRUE(acc.empty());
    }
    expect_hand_off_matches_oracle(
        {random_batch(1, rng, 4000, 0, 1u << 20),
         random_batch(2, rng, 4000, 0, 1u << 20)});
}

// ------------------------------------------------- depth-1 equivalence
TEST(RealTimeEnginePipeline, DepthOneMatchesUnpipelinedEngineExactly)
{
    ThreadPool pool(4);
    const auto cfg = pipeline_config(core::UpdatePolicy::kAbrUsc, 1);
    core::RealTimeEngine plain(cfg, 2000, pool);
    core::RealTimeEngine piped(cfg, 2000, pool);
    std::uint64_t rounds = 0;
    piped.set_compute([&](const graph::SnapshotView& snap,
                          const core::PendingWork& work) {
        ++rounds;
        EXPECT_EQ(snap.epoch(), work.epoch);
    });

    for (std::uint64_t k = 1; k <= 4; ++k) {
        const auto batch = pipeline_batch(k, 1200, 40 + k);
        const auto ra = plain.ingest(batch);
        const auto rb = piped.ingest(batch);
        expect_reports_equal(ra, rb);
        // The legacy polling contract is untouched in pipeline mode.
        EXPECT_EQ(plain.compute_due(), piped.compute_due());
    }
    EXPECT_TRUE(plain.graph().same_topology(piped.graph()));
    EXPECT_GT(rounds, 0u);
    // An OCA-deferred tail may still be pending; flush it so the final
    // snapshot corresponds to the full stream.
    piped.flush_pipeline();
    EXPECT_EQ(rounds, piped.pipeline_stats().epochs_published);
    // Depth 1 runs rounds inline: no compute thread, no stalls.
    EXPECT_EQ(piped.pipeline_stats().backpressure_stalls, 0u);
    // The published snapshot is the live graph at the last publication.
    expect_snapshot_matches_live(piped.snapshot(), piped.graph());
    EXPECT_EQ(piped.snapshot().epoch(), piped.graph().epoch());
}

// ------------------------------------------------- depth-2 equivalence
struct PipelineAnalytics {
    analytics::IncrementalPageRank pagerank;
    analytics::IncrementalSssp sssp{0};
    analytics::ComputeMeter meter;

    void
    round(const graph::SnapshotView& snap, const core::PendingWork& work)
    {
        meter.round_on(work.epoch);
        pagerank.on_batch(snap, work.affected, &meter);
        sssp.on_batch(snap, work.inserted, work.deleted, &meter);
    }
};

TEST(RealTimeEnginePipeline, DepthTwoResultsEqualSerialRun)
{
    // One update worker pins the edge-array order: under a multi-worker
    // update only weights/topology are schedule-deterministic (see
    // adjacency_list.h), and incremental PageRank's float summation is
    // order-sensitive.  With the order pinned, any divergence below is
    // attributable to the pipeline itself — which must introduce none.
    ThreadPool pool(1);
    PipelineAnalytics serial;
    PipelineAnalytics overlapped;
    const auto serial_cfg = pipeline_config(core::UpdatePolicy::kAbrUsc, 1);
    const auto piped_cfg = pipeline_config(core::UpdatePolicy::kAbrUsc, 2);
    core::RealTimeEngine serial_engine(serial_cfg, 2000, pool);
    core::RealTimeEngine piped_engine(piped_cfg, 2000, pool);
    serial_engine.set_compute(
        [&](const graph::SnapshotView& s, const core::PendingWork& w) {
            serial.round(s, w);
        });
    piped_engine.set_compute(
        [&](const graph::SnapshotView& s, const core::PendingWork& w) {
            overlapped.round(s, w);
        });

    for (std::uint64_t k = 1; k <= 6; ++k) {
        // Mix in deletions so the SSSP trim path is exercised.
        auto batch = pipeline_batch(k, 900, 50 + k);
        if (k >= 2) {
            auto prev = pipeline_batch(k - 1, 900, 50 + k - 1);
            for (std::size_t i = 0; i < 40; ++i) {
                StreamEdge del = prev.edges()[i * 7];
                del.is_delete = true;
                batch.push_edge(del);
            }
        }
        (void)serial_engine.ingest(batch);
        (void)piped_engine.ingest(batch);
    }
    serial_engine.flush_pipeline();
    piped_engine.flush_pipeline();

    // Same epochs, same snapshots, same rounds => bitwise-equal results.
    EXPECT_TRUE(serial_engine.graph().same_topology(piped_engine.graph()));
    EXPECT_EQ(serial.meter.last_epoch(), overlapped.meter.last_epoch());
    EXPECT_EQ(serial.meter.stats().activations,
              overlapped.meter.stats().activations);
    EXPECT_EQ(serial.meter.stats().traversals,
              overlapped.meter.stats().traversals);
    EXPECT_EQ(serial.pagerank.ranks(), overlapped.pagerank.ranks());
    EXPECT_EQ(serial.sssp.distances(), overlapped.sssp.distances());
    EXPECT_GT(serial.pagerank.ranks().size(), 0u);
}

TEST(RealTimeEnginePipeline, DepthTwoComputeSeesOnlyPublishedDirtySet)
{
    // Each batch k touches only the disjoint vertex range
    // [(k-1)*100, (k-1)*100 + 50).  At depth 2 the incremental compute
    // round for epoch k runs concurrently with the ingest of batch k+1
    // into the live graph — but it must see exactly epoch k's published
    // snapshot and dirty set: the dirty vertices all lie in batch k's
    // range, and every later batch's range is still empty in the
    // snapshot.  (The tsan check_matrix leg re-runs this test to prove
    // the overlap is race-free, not just value-correct.)
    constexpr std::uint64_t kBatches = 6;
    constexpr VertexId kStride = 100;
    constexpr VertexId kSpan = 50;
    const auto range_lo = [](EpochId k) {
        return static_cast<VertexId>((k - 1) * kStride);
    };

    ThreadPool pool(4);
    const auto cfg = pipeline_config(core::UpdatePolicy::kBaseline, 2);
    core::RealTimeEngine engine(cfg, 2000, pool);

    struct EpochRecord {
        EpochId epoch = 0;
        EpochId snap_epoch = 0;
        bool delta = false;
        bool dirty_in_range = false;
        bool future_ranges_empty = false;
        bool sssp_matches = false;
        bool bfs_matches = false;
    };
    Mutex mu;
    std::vector<EpochRecord> records;
    analytics::incremental::IncrementalAnalytics bundle;

    engine.set_compute([&](const graph::SnapshotView& snap,
                           const core::PendingWork& work) {
        EpochRecord r;
        r.epoch = work.epoch;
        r.snap_epoch = snap.epoch();
        const VertexId lo = range_lo(work.epoch);
        r.dirty_in_range =
            !work.affected.empty() &&
            std::all_of(work.affected.begin(), work.affected.end(),
                        [&](VertexId v) {
                            return v >= lo && v < lo + kSpan;
                        });
        r.future_ranges_empty = true;
        for (EpochId k = work.epoch + 1; k <= kBatches; ++k) {
            for (VertexId v = range_lo(k); v < range_lo(k) + kSpan; ++v) {
                if (snap.degree(v, Direction::kOut) != 0) {
                    r.future_ranges_empty = false;
                }
            }
        }
        const auto d = bundle.on_epoch(snap, work);
        r.delta = d.delta;
        r.sssp_matches =
            bundle.sssp().distances() == analytics::static_sssp(snap, 0);
        r.bfs_matches =
            bundle.bfs().hops() == analytics::bfs_distances(snap, 0);
        const MutexLock lock(mu);
        records.push_back(r);
    });

    for (EpochId k = 1; k <= kBatches; ++k) {
        std::vector<StreamEdge> edges;
        for (VertexId i = 0; i + 1 < kSpan; ++i) {
            edges.push_back({range_lo(k) + i, range_lo(k) + i + 1, 1.0f,
                             /*is_delete=*/false});
        }
        (void)engine.ingest(stream::EdgeBatch(k, std::move(edges)));
    }
    engine.flush_pipeline();

    ASSERT_EQ(records.size(), kBatches);
    for (const EpochRecord& r : records) {
        SCOPED_TRACE("epoch=" + std::to_string(r.epoch));
        EXPECT_EQ(r.snap_epoch, r.epoch);
        EXPECT_TRUE(r.dirty_in_range);
        EXPECT_TRUE(r.future_ranges_empty);
        EXPECT_TRUE(r.sssp_matches);
        EXPECT_TRUE(r.bfs_matches);
        // kAuto sends every warm epoch down the delta path here: the
        // dirty fraction is 50/2000 and there are no deletions.
        EXPECT_EQ(r.delta, r.epoch > 1);
    }
    EXPECT_EQ(bundle.delta_epochs(), kBatches - 1);
}

TEST(RealTimeEnginePipeline, DepthTwoStallsWhenComputeOutlastsIngest)
{
    ThreadPool pool(4);
    const auto cfg = pipeline_config(core::UpdatePolicy::kBaseline, 2);
    core::RealTimeEngine engine(cfg, 2000, pool);
    std::atomic<std::uint64_t> rounds{0};
    engine.set_compute([&](const graph::SnapshotView&,
                           const core::PendingWork&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        rounds.fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t k = 1; k <= 3; ++k) {
        (void)engine.ingest(pipeline_batch(k, 400, 60 + k));
    }
    engine.flush_pipeline();
    const auto& ps = engine.pipeline_stats();
    EXPECT_EQ(rounds.load(), 3u);
    EXPECT_EQ(ps.epochs_published, 3u);
    // A 20ms round always outlasts a 400-edge ingest: every publication
    // after the first (and the final flush) waits on the in-flight round.
    EXPECT_GE(ps.backpressure_stalls, 2u);
    EXPECT_GT(ps.stall_seconds, 0.0);
}

TEST(RealTimeEnginePipeline, FlushPublishesOcaDeferredTail)
{
    ThreadPool pool(4);
    auto cfg = pipeline_config(core::UpdatePolicy::kBaseline, 2);
    cfg.oca.enabled = true;
    cfg.oca.threshold = 0.0; // always aggregate once measured
    cfg.abr.n = 1;           // probe every batch
    core::RealTimeEngine engine(cfg, 2000, pool);
    std::atomic<std::uint64_t> batches_computed{0};
    engine.set_compute([&](const graph::SnapshotView&,
                           const core::PendingWork& w) {
        batches_computed.fetch_add(w.batches, std::memory_order_relaxed);
    });
    (void)engine.ingest(pipeline_batch(1, 500, 71));
    // Batch 2 defers its round (aggregation latched): no publication.
    const auto r2 = engine.ingest(pipeline_batch(2, 500, 72));
    EXPECT_TRUE(r2.defer_compute);
    engine.flush_pipeline();
    // The deferred tail reached compute via the flush.
    EXPECT_EQ(batches_computed.load(), 2u);
    EXPECT_EQ(engine.pipeline_stats().epochs_published, 2u);
    // Flushing again is a no-op.
    engine.flush_pipeline();
    EXPECT_EQ(engine.pipeline_stats().epochs_published, 2u);
}

// ----------------------------------------------------- epochs + tokens
TEST(Epochs, AdvanceOnHandOffAndStampWork)
{
    sim::SimEngine engine(pipeline_config(core::UpdatePolicy::kBaseline, 2),
                          sim::MachineParams{}, sim::SwCostParams{},
                          sim::HauCostParams{}, 2000);
    EXPECT_EQ(engine.graph().epoch(), 0u);
    (void)engine.ingest(pipeline_batch(1, 300, 80));
    const auto w1 = engine.take_pending_work();
    EXPECT_EQ(w1.epoch, 1u);
    EXPECT_EQ(engine.graph().epoch(), 1u);
    (void)engine.ingest(pipeline_batch(2, 300, 81));
    const auto w2 = engine.take_pending_work();
    EXPECT_EQ(w2.epoch, 2u);
}

// ------------------------------------------------- sim overlap modeling
TEST(SimEnginePipeline, UpdateCyclesHiddenUnderComputeAtDepthTwo)
{
    sim::SimEngine engine(pipeline_config(core::UpdatePolicy::kBaseline, 2),
                          sim::MachineParams{}, sim::SwCostParams{},
                          sim::HauCostParams{}, 2000);
    const auto r1 = engine.ingest(pipeline_batch(1, 800, 90));
    EXPECT_EQ(r1.update_hidden_cycles, 0u); // nothing in flight yet
    (void)engine.take_pending_work();
    // A compute round larger than any batch's update: the next batches'
    // updates hide completely until the budget drains.
    engine.note_compute_round(r1.update.cycles * 3);
    const auto r2 = engine.ingest(pipeline_batch(2, 800, 91));
    EXPECT_EQ(r2.update_hidden_cycles, r2.update.cycles);
    EXPECT_GT(r2.update_hidden_cycles, 0u);
    // Budget drains monotonically across subsequent ingests.
    const auto r3 = engine.ingest(pipeline_batch(3, 800, 92));
    const auto r4 = engine.ingest(pipeline_batch(4, 800, 93));
    const auto r5 = engine.ingest(pipeline_batch(5, 800, 94));
    const Cycles hidden_total = r2.update_hidden_cycles +
                                r3.update_hidden_cycles +
                                r4.update_hidden_cycles +
                                r5.update_hidden_cycles;
    EXPECT_LE(hidden_total, r1.update.cycles * 3);
    EXPECT_LT(r5.update_hidden_cycles, r5.update.cycles); // budget exhausted
}

TEST(SimEnginePipeline, NoHidingAtDepthOne)
{
    sim::SimEngine engine(pipeline_config(core::UpdatePolicy::kBaseline, 1),
                          sim::MachineParams{}, sim::SwCostParams{},
                          sim::HauCostParams{}, 2000);
    const auto r1 = engine.ingest(pipeline_batch(1, 800, 95));
    (void)engine.take_pending_work();
    engine.note_compute_round(r1.update.cycles * 100);
    const auto r2 = engine.ingest(pipeline_batch(2, 800, 96));
    EXPECT_EQ(r2.update_hidden_cycles, 0u);
}

// ----------------------------------------------------------- move fix
TEST(AdjacencyListMove, MoveConstructionTransfersAndZeroesSource)
{
    graph::AdjacencyList a(16);
    a.apply_insert(3, {4, 1.5f}, Direction::kOut);
    a.apply_insert(4, {3, 1.5f}, Direction::kIn);
    a.advance_epoch();
    graph::AdjacencyList b(std::move(a));
    EXPECT_EQ(b.num_vertices(), 16u);
    EXPECT_EQ(b.num_edges(), 1u);
    EXPECT_EQ(b.epoch(), 1u);
    EXPECT_EQ(b.degree(3, Direction::kOut), 1u);
    // The moved-from graph is empty and reusable, not half-alive.
    EXPECT_EQ(a.num_vertices(), 0u);   // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.num_edges(), 0u);
    EXPECT_EQ(a.epoch(), 0u);
    a.ensure_vertices(4);
    a.apply_insert(0, {1, 1.0f}, Direction::kOut);
    EXPECT_EQ(a.num_edges(), 1u);
    static_assert(!std::is_move_assignable_v<graph::AdjacencyList>);
}

} // namespace
} // namespace igs
