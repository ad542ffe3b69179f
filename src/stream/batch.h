/**
 * @file
 * Input batch representation and per-batch degree statistics.
 *
 * An input batch is a fixed-size slice of the edge stream (paper §3.1).
 * Batch-level degree concepts: the degree of vertex v *in a batch* is the
 * number of batch edges incident to v as source (out) or destination (in);
 * N(k) is the number of batch vertices with degree k.
 */
#ifndef IGS_STREAM_BATCH_H
#define IGS_STREAM_BATCH_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace igs::stream {

/**
 * A batch of streamed graph modifications, in arrival order.
 *
 * The edge array is filled through @ref set_edges / @ref push_edge so the
 * batch can cache per-batch facts at construction time instead of paying
 * extra scans in the update hot path — currently whether the batch contains
 * any deletion (the baseline kernel's second pass is skipped using it).
 */
class EdgeBatch {
  public:
    /** 1-based batch sequence number (0 = "no batch yet" in latest_bid). */
    std::uint64_t id = 1;

    EdgeBatch() = default;
    EdgeBatch(std::uint64_t bid, std::vector<StreamEdge> e) : id(bid)
    {
        set_edges(std::move(e));
    }

    /** Replace the batch contents, refreshing the cached flags. */
    void
    set_edges(std::vector<StreamEdge> e)
    {
        edges_ = std::move(e);
        has_deletes_ = false;
        for (const StreamEdge& edge : edges_) {
            if (edge.is_delete) {
                has_deletes_ = true;
                break;
            }
        }
    }

    /** Append one modification, keeping the cached flags current. */
    void
    push_edge(const StreamEdge& e)
    {
        has_deletes_ = has_deletes_ || e.is_delete;
        edges_.push_back(e);
    }

    const std::vector<StreamEdge>& edges() const { return edges_; }

    /** Cached at fill time: does the batch contain any deletion? */
    bool has_deletes() const { return has_deletes_; }

    std::size_t size() const { return edges_.size(); }
    bool empty() const { return edges_.empty(); }

  private:
    std::vector<StreamEdge> edges_;
    bool has_deletes_ = false;
};

/** Degree statistics of one batch, as used by the characterization study. */
struct BatchDegreeStats {
    /** Max #edges sourced at a single vertex. */
    std::uint32_t max_out_degree = 0;
    /** Max #edges targeting a single vertex. */
    std::uint32_t max_in_degree = 0;
    /** Unique sources / destinations in the batch. */
    std::uint32_t unique_sources = 0;
    std::uint32_t unique_destinations = 0;
    /** N(k) over batch out-degrees and in-degrees. */
    Histogram out_degree_histogram;
    Histogram in_degree_histogram;
};

/**
 * Compute full degree statistics of a batch, serially on the calling
 * thread (characterization benches, and ABR's CAD for a batch that is not
 * reordered: core::cad_from_batch).
 */
BatchDegreeStats compute_batch_degree_stats(std::span<const StreamEdge> edges);

} // namespace igs::stream

#endif // IGS_STREAM_BATCH_H
