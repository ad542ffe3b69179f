/**
 * @file
 * Traced ingest: the engine's layers driven one public call at a time,
 * with a span around each call.
 *
 * The decision sequence is the engine's own: core/ingest.h's
 * reorder_and_reserve and drive_batch, with this file's timed update
 * callback choosing the same kernel BasicRealTimeEngine::ingest does.
 * Around that sequence sit the calls the engine makes privately —
 * pending hand-off, snapshot publication, the compute round (inline at
 * depth 1, on its own thread at depth 2 with a join before the next
 * publication) and the locality monitor — so every layer's time is
 * measured from the benchmark's side of its public interface.  The
 * benchmark requires the traced run to reproduce the untraced engine's
 * per-batch decisions and final graph exactly.
 */
#ifndef PERFBENCH_TRACED_ENGINE_H
#define PERFBENCH_TRACED_ENGINE_H

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "graph/renumber.h"
#include "graph/snapshot_view.h"
#include "stream/pending.h"
#include "stream/reorder.h"
#include "stream/update_context.h"
#include "stream/updaters.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Update kernel that ran a batch. */
enum class UpdatePath { kUsc = 0, kReordered = 1, kBaseline = 2 };

inline UpdatePath
path_of(const igs::core::BatchReport& r)
{
    return r.used_usc ? UpdatePath::kUsc
                      : (r.reordered ? UpdatePath::kReordered
                                     : UpdatePath::kBaseline);
}

/** Busy time (seconds) and work counted at each layer boundary. */
struct LayerTimes {
    double reorder = 0.0;
    double decide = 0.0;
    double update[3] = {0.0, 0.0, 0.0};
    std::uint64_t update_batches[3] = {0, 0, 0};
    std::uint64_t update_edges[3] = {0, 0, 0};
    double pending = 0.0;
    double snapshot = 0.0;
    std::uint64_t copied_edges = 0;
    std::uint64_t dirty_vertices = 0;
    std::uint64_t epochs = 0;
    /** Caller-side waits for the in-flight compute round (depth 2). */
    double stall = 0.0;
    /** Compute rounds run inline on the caller's thread (depth 1). */
    double inline_compute = 0.0;
    double renumber_monitor = 0.0;
    double renumber_apply = 0.0;
    std::uint64_t renumber_passes = 0;

    LayerTimes&
    operator+=(const LayerTimes& o)
    {
        reorder += o.reorder;
        decide += o.decide;
        for (int k = 0; k < 3; ++k) {
            update[k] += o.update[k];
            update_batches[k] += o.update_batches[k];
            update_edges[k] += o.update_edges[k];
        }
        pending += o.pending;
        snapshot += o.snapshot;
        copied_edges += o.copied_edges;
        dirty_vertices += o.dirty_vertices;
        epochs += o.epochs;
        stall += o.stall;
        inline_compute += o.inline_compute;
        renumber_monitor += o.renumber_monitor;
        renumber_apply += o.renumber_apply;
        renumber_passes += o.renumber_passes;
        return *this;
    }

    double
    update_total() const
    {
        return update[0] + update[1] + update[2];
    }

    /** Everything timed on the caller's (ingest) thread. */
    double
    caller_total() const
    {
        return reorder + decide + update_total() + pending + snapshot +
               stall + inline_compute + renumber_monitor + renumber_apply;
    }
};

/** Scoped span adding its duration to one accumulator. */
class Span {
  public:
    explicit Span(double& sink) : sink_(sink), start_(Clock::now()) {}
    ~Span() { sink_ += seconds_between(start_, Clock::now()); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    double& sink_;
    Clock::time_point start_;
};

/**
 * The traced counterpart of BasicRealTimeEngine<GraphT>: same members,
 * same call order, a span around each layer call.
 */
template <typename GraphT>
class TracedEngine {
  public:
    TracedEngine(const igs::core::EngineConfig& config,
                 std::size_t num_vertices, igs::ThreadPool& pool,
                 LayerTimes& times)
        : core_(config), graph_(num_vertices), pool_(pool),
          reorderer_(config.reorder_mode), monitor_(config.renumber),
          times_(times)
    {
        if constexpr (requires { graph_.set_tuning(config.store); }) {
            graph_.set_tuning(config.store);
        }
    }

    ~TracedEngine() { join_inflight(); }
    TracedEngine(const TracedEngine&) = delete;
    TracedEngine& operator=(const TracedEngine&) = delete;

    GraphT& graph() { return graph_; }
    const GraphT& graph() const { return graph_; }
    igs::graph::SnapshotView snapshot() const { return snapshots_.view(); }
    bool compute_due() const { return compute_due_; }
    std::uint64_t renumbers() const { return renumbers_; }

    void
    set_compute(igs::core::ComputeFn fn)
    {
        join_inflight();
        compute_fn_ = std::move(fn);
    }

    igs::stream::PendingWork
    take_pending_work()
    {
        Span s(times_.pending);
        return pending_.take();
    }

    igs::core::BatchReport
    ingest(const igs::stream::EdgeBatch& batch)
    {
        namespace detail = igs::core::detail;
        bool reorder = false;
        const igs::stream::ReorderedBatch* rb = nullptr;
        {
            Span s(times_.reorder);
            rb = detail::reorder_and_reserve(core_, reorderer_, graph_, batch,
                                             pool_, reorder);
        }
        double update_s = 0.0;
        const Clock::time_point t0 = Clock::now();
        igs::core::BatchReport report = detail::drive_batch(
            core_, batch, reorder, rb, /*hau_available=*/false,
            [&](const detail::Dispatch& d, const igs::stream::ReorderedBatch* r,
                igs::stream::OcaProbe* probe, igs::core::BatchReport&) {
                Span s(update_s);
                igs::stream::RealContext ctx(pool_, &usc_scratch_);
                if (d.reorder && d.usc) {
                    igs::stream::apply_batch_usc(graph_, batch, *r, ctx, probe);
                } else if (d.reorder) {
                    igs::stream::apply_batch_reordered(graph_, batch, *r, ctx,
                                                       probe);
                } else {
                    igs::stream::apply_batch_baseline(graph_, batch, ctx,
                                                      probe);
                }
            });
        times_.decide += seconds_between(t0, Clock::now()) - update_s;
        const auto path = static_cast<std::size_t>(path_of(report));
        times_.update[path] += update_s;
        times_.update_batches[path] += 1;
        times_.update_edges[path] += batch.size();

        {
            Span s(times_.pending);
            pending_.note_batch(batch);
        }
        compute_due_ = !report.defer_compute;
        if (compute_fn_ && compute_due_) {
            publish_epoch();
        }
        if (core_.config().renumber.enabled) {
            maybe_renumber(batch);
        }
        return report;
    }

    void
    flush_pipeline()
    {
        if (!compute_fn_) {
            return;
        }
        if (!pending_.empty()) {
            publish_epoch();
        }
        join_inflight();
    }

  private:
    void
    join_inflight()
    {
        if (inflight_.joinable()) {
            Span s(times_.stall);
            inflight_.join();
        }
    }

    void
    publish_epoch()
    {
        join_inflight();
        const igs::EpochId epoch = graph_.advance_epoch();
        {
            Span s(times_.pending);
            inflight_work_ = pending_.hand_off(epoch);
        }
        {
            Span s(times_.snapshot);
            const igs::graph::PublishStats ps =
                snapshots_.publish(graph_, inflight_work_.affected);
            times_.copied_edges += ps.copied_edges;
            times_.dirty_vertices += ps.dirty_vertices;
            if constexpr (requires { graph_.publish_tier_telemetry(); }) {
                graph_.publish_tier_telemetry();
            }
        }
        times_.epochs += 1;
        const igs::graph::SnapshotView view = snapshots_.view();
        if (core_.config().pipeline_depth >= 2) {
            // Joined before the next publication and in the destructor,
            // so the captured view and work never dangle.
            inflight_ = std::thread(
                [this, view]() { compute_fn_(view, inflight_work_); });
        } else {
            Span s(times_.inline_compute);
            compute_fn_(view, inflight_work_);
        }
    }

    /** BasicRealTimeEngine::maybe_renumber, with the monitor and the
     *  renumber pass timed separately. */
    void
    maybe_renumber(const igs::stream::EdgeBatch& batch)
    {
        if constexpr (requires {
                          graph_.apply_renumber(
                              std::span<const igs::VertexId>{});
                          graph_.id_map();
                      }) {
            {
                Span s(times_.renumber_monitor);
                for (const igs::StreamEdge& e : batch.edges()) {
                    monitor_.observe(e.src);
                    monitor_.observe(e.dst);
                }
                monitor_.end_window(graph_.id_map());
                if (!monitor_.should_renumber()) {
                    return;
                }
            }
            Span s(times_.renumber_apply);
            const std::size_t n = graph_.num_vertices();
            std::vector<std::uint64_t> degrees(n);
            for (std::size_t v = 0; v < n; ++v) {
                const auto lv = static_cast<igs::VertexId>(v);
                degrees[v] = static_cast<std::uint64_t>(
                                 graph_.degree(lv, igs::Direction::kOut)) +
                             graph_.degree(lv, igs::Direction::kIn);
            }
            graph_.apply_renumber(igs::graph::LocalityRenumberer::plan(
                degrees, core_.config().renumber.mode));
            monitor_.note_renumbered();
            ++renumbers_;
            times_.renumber_passes += 1;
        } else {
            (void)batch;
        }
    }

    igs::core::detail::DecisionCore core_;
    GraphT graph_;
    igs::ThreadPool& pool_;
    igs::stream::Reorderer reorderer_;
    igs::stream::UscScratch usc_scratch_;
    igs::stream::PendingAccumulator pending_;
    bool compute_due_ = false;
    igs::graph::LocalityMonitor monitor_;
    std::uint64_t renumbers_ = 0;
    LayerTimes& times_;

    igs::core::ComputeFn compute_fn_;
    igs::graph::SnapshotStore snapshots_;
    igs::stream::PendingWork inflight_work_;
    std::thread inflight_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_ENGINE_H
