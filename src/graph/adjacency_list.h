/**
 * @file
 * Adjacency-list dynamic graph structure ("AS" in the paper / SAGA-Bench).
 *
 * Per vertex and direction, one growable edge array.  Duplicate checking
 * is a linear scan of that array — the cost the paper's USC and HAU
 * techniques target.  Everything else (locks, `latest_bid`, epochs, the
 * id map, engine-wide update semantics) is graph::BasicStore's.
 */
#ifndef IGS_GRAPH_ADJACENCY_LIST_H
#define IGS_GRAPH_ADJACENCY_LIST_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/basic_store.h"
#include "graph/store_tuning.h"

namespace igs::graph {

/** One vertex's edge array: a linear-scan duplicate check, swap-remove. */
class AdjacencyEdges {
  public:
    /** Scan for `nbr.id`; a hit accumulates the weight, a miss appends.
     *  `probes` counts the elements the scan examined. */
    ApplyResult
    insert(Neighbor nbr, const StoreTuning& /*tuning*/)
    {
        ApplyResult r;
        r.len_before = size();
        for (Neighbor& e : edges_) {
            ++r.probes;
            if (e.id == nbr.id) {
                e.weight += nbr.weight;
                r.found = true;
                return r;
            }
        }
        // Amortized edge-array growth: the streamed insert is itself the
        // workload being charged.  igs-lint: allow(hot-path-alloc)
        edges_.push_back(nbr);
        return r;
    }

    /** Append a neighbor known to be absent (USC remainder): no scan. */
    void
    append(Neighbor nbr, const StoreTuning& /*tuning*/)
    {
        // igs-lint: allow(hot-path-alloc) -- amortized append
        edges_.push_back(nbr);
    }

    /** Remove `nbr_id` if present, swapping the last edge into its slot
     *  (edge order is not meaningful). */
    ApplyResult
    remove(VertexId nbr_id)
    {
        ApplyResult r;
        r.len_before = size();
        for (std::size_t i = 0; i < edges_.size(); ++i) {
            ++r.probes;
            if (edges_[i].id == nbr_id) {
                edges_[i] = edges_.back();
                edges_.pop_back();
                r.found = true;
                return r;
            }
        }
        return r;
    }

    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(edges_.size());
    }

    const std::vector<Neighbor>& view() const { return edges_; }
    std::span<Neighbor> view_mut() { return edges_; }

  private:
    std::vector<Neighbor> edges_;
};

static_assert(sizeof(AdjacencyEdges) == sizeof(std::vector<Neighbor>),
              "AdjacencyEdges is exactly one edge vector");

/** Dynamic directed graph stored as per-vertex adjacency arrays. */
class AdjacencyList : public BasicStore<AdjacencyEdges> {
  public:
    using BasicStore::BasicStore;
};

static_assert(GraphStore<AdjacencyList>,
              "AdjacencyList must satisfy the versioned read-path concept");

} // namespace igs::graph

#endif // IGS_GRAPH_ADJACENCY_LIST_H
