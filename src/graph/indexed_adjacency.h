/**
 * @file
 * Index-accelerated adjacency list for simulation-mode update replay.
 *
 * The paper's adjacency-list structure pays an O(degree) linear scan per
 * duplicate check.  Replaying a high-degree stream on the host would make
 * those scans O(degree^2) *host* work per batch (a wiki-500K hub receives
 * tens of thousands of edges), even though the scan cost is exactly what
 * the timing model charges analytically.  @ref IndexedEdges keeps the same
 * edge array as AdjacencyList's AdjacencyEdges plus a @ref PositionIndex
 * (neighbor id -> array position), so the host-side duplicate check is
 * O(1), while @ref ApplyResult reports the probe count the *modeled*
 * linear scan would have performed:
 *
 *  - found at array position p  ->  probes = p + 1 (scan stops at match);
 *  - not found                  ->  probes = current length (full scan).
 *
 * Both edge sets append and remove with swap-with-last, so their arrays
 * stay in the same order and these probe counts (and `len_before`) are
 * bit-identical to AdjacencyList's on every insert and remove, deletions
 * included — pinned per operation by IndexedEquivalenceTest in
 * tests/test_graph.cc.  The store around the edge sets is
 * graph::BasicStore, as for the live stores.
 */
#ifndef IGS_GRAPH_INDEXED_ADJACENCY_H
#define IGS_GRAPH_INDEXED_ADJACENCY_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/basic_store.h"
#include "graph/position_index.h"
#include "graph/store_tuning.h"

namespace igs::graph {

/** One vertex's edge array with an O(1) duplicate check that reports the
 *  probes of the linear scan it replaces. */
class IndexedEdges {
  public:
    /** Same contract as AdjacencyEdges::insert; probes are modeled. */
    ApplyResult
    insert(Neighbor nbr, const StoreTuning& /*tuning*/)
    {
        ApplyResult r;
        r.len_before = size();
        index_.reserve_one(edges_);
        const PositionIndex::Lookup hit = index_.find(edges_, nbr.id);
        if (hit.found) {
            // Modeled scan stops at the match position.
            r.found = true;
            r.probes = hit.pos + 1;
            edges_[hit.pos].weight += nbr.weight;
            return r;
        }
        // Modeled scan walks the whole array before appending.
        r.probes = r.len_before;
        // igs-lint: allow(hot-path-alloc) -- amortized edge-array growth
        index_.append(edges_, hit, nbr);
        return r;
    }

    /** Same contract as AdjacencyEdges::remove; probes are modeled. */
    ApplyResult
    remove(VertexId nbr_id)
    {
        ApplyResult r;
        r.len_before = size();
        const PositionIndex::Lookup hit = index_.find(edges_, nbr_id);
        if (!hit.found) {
            r.probes = r.len_before;
            return r;
        }
        r.found = true;
        r.probes = hit.pos + 1;
        index_.swap_remove(edges_, hit);
        return r;
    }

    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(edges_.size());
    }

    const std::vector<Neighbor>& view() const { return edges_; }

  private:
    std::vector<Neighbor> edges_;
    PositionIndex index_;
};

/** The simulator's store: adjacency arrays with modeled probe reporting. */
class IndexedAdjacency : public BasicStore<IndexedEdges> {
  public:
    using BasicStore::BasicStore;
};

static_assert(GraphStore<IndexedAdjacency>,
              "IndexedAdjacency must satisfy the versioned read-path concept");

} // namespace igs::graph

#endif // IGS_GRAPH_INDEXED_ADJACENCY_H
