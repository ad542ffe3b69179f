/**
 * @file
 * Pending compute-phase work, accumulated per batch and handed off per
 * epoch.
 *
 * The engines (core::RealTimeEngine, sim::SimEngine) record every batch
 * into a PendingAccumulator; when a compute round is due (immediately, or
 * after OCA aggregates two batches) the accumulated work is handed off as
 * one @ref PendingWork stamped with the epoch of the snapshot it belongs
 * to (DESIGN.md §11).  Incremental algorithms consume the dirty-vertex and
 * edge-delta lists; the engine's snapshot publication consumes `affected`
 * as its copy-on-publish dirty set.
 *
 * Lives in stream/ (not core/) because the accumulation is a property of
 * the input stream, not of the decision logic — and the sim layer needs it
 * without dragging in core's controllers.  Layer rule: stream/ includes
 * only common/ (tools/layers.toml).
 */
#ifndef IGS_STREAM_PENDING_H
#define IGS_STREAM_PENDING_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/radix.h"
#include "common/types.h"
#include "stream/batch.h"

namespace igs::stream {

/** Batch-span work handed to the compute phase. */
struct PendingWork {
    /** Unique vertices touched since the last compute round (sorted). */
    std::vector<VertexId> affected;
    /** Edge modifications since the last compute round. */
    std::vector<StreamEdge> inserted;
    std::vector<StreamEdge> deleted;
    /** How many batches this round aggregates (1 normally, 2 under OCA). */
    std::uint32_t batches = 0;
    /** Epoch of the snapshot this work was published against (0 when the
     *  caller uses the legacy epochless @ref PendingAccumulator::take). */
    EpochId epoch = 0;
};

/** Accumulates compute-phase work across (possibly aggregated) batches.
 *  Named note_batch (not add) so the whole-program analyzer's simple-name
 *  call graph keeps it distinct from the hot-path add() entry points. */
class PendingAccumulator {
  public:
    void
    note_batch(const EdgeBatch& batch)
    {
        for (const StreamEdge& e : batch.edges()) {
            affected_.push_back(e.src);
            affected_.push_back(e.dst);
            if (e.is_delete) {
                deleted_.push_back(e);
            } else {
                inserted_.push_back(e);
            }
        }
        ++batches_;
    }

    /**
     * Hand the accumulated work to the compute phase, stamped with the
     * epoch it was published under.  `affected` is deduplicated (sorted
     * unique, in linear time) so snapshot publication copies each dirty
     * vertex once.  The buffers move out with the work: the accumulator
     * starts the next epoch empty and keeps no capacity of its own.
     */
    PendingWork
    hand_off(EpochId epoch)
    {
        PendingWork w;
        w.affected = sorted_unique(std::move(affected_));
        w.inserted = std::move(inserted_);
        w.deleted = std::move(deleted_);
        w.batches = batches_;
        w.epoch = epoch;
        affected_.clear();
        inserted_.clear();
        deleted_.clear();
        batches_ = 0;
        return w;
    }

    /** Legacy epochless hand-off (pre-pipeline callers). */
    PendingWork take() { return hand_off(0); }

    std::uint32_t pending_batches() const { return batches_; }
    bool empty() const { return batches_ == 0 && affected_.empty(); }

  private:
    /**
     * Sort `ids` ascending and drop duplicates in O(n): stable LSD
     * counting passes (common/radix.h) over `id - min`, so a window of
     * ids far from 0 still takes the fewest passes, then one unique pass.
     * The pass buffer and the histogram live only for this call, so no
     * scratch sized by the largest epoch (a bulk-load prefix) outlives it.
     */
    static std::vector<VertexId>
    sorted_unique(std::vector<VertexId> ids)
    {
        if (ids.size() < 2) {
            return ids;
        }
        const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
        const VertexId base = *lo;
        const VertexId max_key = *hi - base;
        const RadixPlan plan = plan_radix(ids.size(), max_key);
        std::vector<VertexId> pass_out;
        std::vector<std::uint32_t> hist;
        // igs-lint: allow(hot-path-alloc) -- per-epoch scratch, freed on return
        pass_out.resize(ids.size());
        // igs-lint: allow(hot-path-alloc) -- per-epoch scratch, freed on return
        hist.resize(plan.buckets());
        for (std::uint32_t pass = 0; pass < plan.passes; ++pass) {
            const std::uint32_t shift = pass * plan.bits;
            std::fill(hist.begin(), hist.end(), 0u);
            for (VertexId v : ids) {
                ++hist[((v - base) >> shift) & plan.mask()];
            }
            radix_exclusive_offsets(hist.data(), 1, hist.size(), hist.size());
            for (VertexId v : ids) {
                pass_out[hist[((v - base) >> shift) & plan.mask()]++] = v;
            }
            ids.swap(pass_out);
        }
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        return ids;
    }

    std::vector<VertexId> affected_;
    std::vector<StreamEdge> inserted_;
    std::vector<StreamEdge> deleted_;
    std::uint32_t batches_ = 0;
};

} // namespace igs::stream

#endif // IGS_STREAM_PENDING_H
