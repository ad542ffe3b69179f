/**
 * @file
 * GraphTango-style three-tier hybrid adjacency store.
 *
 * Where @ref igs::graph::AdjacencyList pays an O(degree) duplicate-check
 * scan on every insert (the cost the paper's USC/HAU techniques attack
 * microarchitecturally), this store removes the scan *structurally* with a
 * degree-adaptive per-vertex representation:
 *
 *  - tier 0 (inline): up to @ref HybridEdgeSet::kInlineCapacity edges live
 *    directly in the vertex record — no pointer chase for the tiny-degree
 *    majority of a power-law graph;
 *  - tier 1 (sorted): a sorted heap-allocated edge array; duplicate checks
 *    are an O(log degree) binary search;
 *  - tier 2 (hashed): edges stay in a dense append-order array (so
 *    iteration remains a contiguous scan) plus an open-addressed hash
 *    index mapping neighbor id -> array position; duplicate checks are
 *    O(1) expected.
 *
 * Promotion is one-way on degree growth (tier 0 -> 1 at the inline
 * capacity, tier 1 -> 2 at StoreTuning::hybrid_sorted_threshold).
 * Deletions never demote: a hub that shrinks keeps its index, avoiding
 * representation thrash on churn-heavy streams (see DESIGN.md §12).
 *
 * The store around the edge sets is graph::BasicStore, as for
 * AdjacencyList, so the two are equivalent under any update schedule —
 * property-tested in tests/test_hybrid_store.cc.
 *
 * All three tiers expose the edge set as one contiguous
 * std::span<const Neighbor>, so the store satisfies graph::GraphStore and
 * plugs into SnapshotStore publication and every analytics read path
 * unchanged.  Telemetry: core.graph.tier_* (registered lazily on first
 * use so runs that never construct a HybridStore keep their golden
 * registry snapshots unchanged).
 */
#ifndef IGS_GRAPH_HYBRID_STORE_H
#define IGS_GRAPH_HYBRID_STORE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/basic_store.h"
#include "graph/position_index.h"
#include "graph/store_tuning.h"

namespace igs::graph {

/**
 * Per-vertex three-tier edge container.  Tier thresholds come in per call;
 * each insert and remove records its probe count in the per-tier
 * histogram, and each promotion its counter (core.graph.tier_*).
 */
class HybridEdgeSet {
  public:
    /** Edges stored inline in the vertex record before the first
     *  promotion.  A compile-time layout property, not a tunable. */
    static constexpr std::uint32_t kInlineCapacity = 4;

    enum Tier : std::uint8_t { kInline = 0, kSorted = 1, kHashed = 2 };

    std::uint8_t tier() const { return tier_; }
    std::uint32_t size() const { return count_; }

    /**
     * Duplicate-check then insert (weight accumulates on a hit).
     * StoreTuning::hybrid_sorted_threshold is the tier-1 -> tier-2
     * promotion degree.  ApplyResult::probes counts the id comparisons
     * the duplicate check performed — a linear-scan count at tier 0, a
     * binary-search count at tier 1, a cluster-probe count at tier 2.
     */
    ApplyResult insert(Neighbor nbr, const StoreTuning& tuning);

    /** Insert a neighbor known to be absent (USC remainder).  Goes through
     *  the tiered insert, so promotions and index invariants hold and the
     *  (guaranteed-miss) probes it records stay honest. */
    void
    append(Neighbor nbr, const StoreTuning& tuning)
    {
        const ApplyResult r = insert(nbr, tuning);
        IGS_DCHECK(!r.found);
        (void)r;
    }

    /** Remove if present (no-op otherwise); never demotes the tier. */
    ApplyResult remove(VertexId nbr_id);

    /** Contiguous view of the stored edges (any tier). */
    std::span<const Neighbor>
    view() const
    {
        return tier_ == kInline
                   ? std::span<const Neighbor>(inline_, count_)
                   : std::span<const Neighbor>(heap_.data(), count_);
    }

    /** Mutable view (USC coalesced scan; caller owns synchronization). */
    std::span<Neighbor>
    view_mut()
    {
        return tier_ == kInline
                   ? std::span<Neighbor>(inline_, count_)
                   : std::span<Neighbor>(heap_.data(), count_);
    }

  private:
    ApplyResult place(Neighbor nbr, std::uint32_t sorted_threshold);
    ApplyResult erase(VertexId nbr_id);
    void promote_to_sorted();
    void promote_to_hash();
    ApplyResult hash_insert(Neighbor nbr);
    ApplyResult hash_remove(VertexId nbr_id);

    Neighbor inline_[kInlineCapacity] = {};
    /** Tier 1: sorted by id.  Tier 2: dense, append order. */
    std::vector<Neighbor> heap_;
    /** Tier 2 only: neighbor id -> position in `heap_`. */
    PositionIndex index_;
    std::uint32_t count_ = 0;
    std::uint8_t tier_ = kInline;
};

// The vertex record keeps its layout: inline edges, heap array, hash
// index, then the count and tier in one padded word.
static_assert(sizeof(HybridEdgeSet) ==
                  HybridEdgeSet::kInlineCapacity * sizeof(Neighbor) +
                      2 * sizeof(std::vector<Neighbor>) + sizeof(std::uint64_t),
              "HybridEdgeSet must not grow");

/**
 * Dynamic directed graph over @ref HybridEdgeSet per vertex/direction: a
 * graph::BasicStore plus the tier census.
 */
class HybridStore : public BasicStore<HybridEdgeSet> {
  public:
    explicit HybridStore(std::size_t num_vertices = 0,
                         const StoreTuning& tuning = {});

    /** Current representation tier of `v`'s `dir` edge set. */
    std::uint8_t tier(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).tier();
    }

    /** Out-direction tier population (vertices per tier). */
    struct TierCensus {
        std::size_t vertices[3] = {0, 0, 0};
    };
    TierCensus tier_census() const;

    /** Refresh the core.graph.tier*_vertices gauges from a fresh census.
     *  The engine calls this at each epoch publication. */
    void publish_tier_telemetry() const;
};

static_assert(GraphStore<HybridStore>,
              "HybridStore must satisfy the versioned read-path concept");

} // namespace igs::graph

#endif // IGS_GRAPH_HYBRID_STORE_H
