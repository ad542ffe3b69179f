/**
 * @file
 * Index-accelerated adjacency list for simulation-mode update replay.
 *
 * The paper's adjacency-list structure pays an O(degree) linear scan per
 * duplicate check.  Replaying a high-degree stream on the host would make
 * those scans O(degree^2) *host* work per batch (a wiki-500K hub receives
 * tens of thousands of edges), even though the scan cost is exactly what
 * the timing model charges analytically.  This structure keeps the same
 * edge arrays and the same final state as @ref AdjacencyList but adds a
 * hash index (edge -> array position) so the host-side duplicate check is
 * O(1), while @ref ApplyResult reports the probe count the *modeled*
 * linear scan would have performed:
 *
 *  - found at array position p  ->  probes = p + 1 (scan stops at match);
 *  - not found                  ->  probes = current length (full scan).
 *
 * Both structures remove with swap-with-last, so their arrays stay in the
 * same order and these probe counts (and `len_before`) are bit-identical
 * to AdjacencyList's on every insert and remove, deletions included —
 * pinned per operation by IndexedEquivalenceTest in tests/test_graph.cc.
 */
#ifndef IGS_GRAPH_INDEXED_ADJACENCY_H
#define IGS_GRAPH_INDEXED_ADJACENCY_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/basic_store.h"

namespace igs::graph {

/** Adjacency list with O(1) duplicate checks and modeled probe reporting. */
class IndexedAdjacency {
  public:
    explicit IndexedAdjacency(std::size_t num_vertices = 0);

    std::size_t num_vertices() const { return out_.size(); }
    EdgeId num_edges() const { return num_edges_; }

    /** Grow the vertex space (single-threaded, between batches). */
    void ensure_vertices(std::size_t n);

    /** Same contract as AdjacencyList::apply_insert; probes are modeled. */
    ApplyResult apply_insert(VertexId v, Neighbor nbr, Direction dir);

    /** Same contract as AdjacencyList::apply_remove; probes are modeled. */
    ApplyResult apply_remove(VertexId v, VertexId nbr_id, Direction dir);

    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        const auto& e = dir == Direction::kOut ? out_[v] : in_[v];
        return static_cast<std::uint32_t>(e.size());
    }

    const std::vector<Neighbor>&
    edges(VertexId v, Direction dir) const
    {
        return dir == Direction::kOut ? out_[v] : in_[v];
    }

    std::uint64_t latest_bid(VertexId v) const { return latest_bid_.at(v); }

    std::uint64_t
    exchange_latest_bid(VertexId v, std::uint64_t bid)
    {
        return latest_bid_.exchange_at(v, bid);
    }

    /** Epoch token (graph/graph_store.h); same contract as
     *  AdjacencyList::epoch — advanced by the engine at publication. */
    EpochId epoch() const { return epoch_; }
    EpochId advance_epoch() { return ++epoch_; }

  private:
    static std::uint64_t
    key_of(VertexId v, VertexId nbr)
    {
        return (static_cast<std::uint64_t>(v) << 32) | nbr;
    }

    std::vector<std::vector<Neighbor>> out_;
    std::vector<std::vector<Neighbor>> in_;
    /** (v, nbr) -> position of nbr in v's edge array, per direction. */
    std::unordered_map<std::uint64_t, std::uint32_t> out_index_;
    std::unordered_map<std::uint64_t, std::uint32_t> in_index_;
    LatestBids latest_bid_;
    EpochId epoch_ = 0;
    EdgeId num_edges_ = 0;
};

} // namespace igs::graph

#endif // IGS_GRAPH_INDEXED_ADJACENCY_H
