/**
 * @file
 * BasicStore — the one dynamic-graph skeleton every store shares.
 *
 * The paper's engine updates one adjacency structure (SAGA-Bench's AS, with
 * DAH as the §6.2.3 alternative) and adds two per-vertex fields to it: the
 * `latest_bid` OCA reads (§5) and a per-vertex lock for the baseline update
 * path.  What differs between AdjacencyList, DegreeAwareHash, HybridStore
 * and the simulator's IndexedAdjacency is only the per-vertex *edge set*;
 * this template owns everything else and implements each store operation
 * once:
 *
 *  - the out/in edge-set arrays, one SpinlockArray per direction, the
 *    latest-bid array, the epoch token, the logical/physical VertexIdMap,
 *    the StoreTuning and the atomic out-edge count;
 *  - growth, the public-id -> physical-row translation, insert/remove
 *    with edge accounting, the USC coalesced apply, renumbering, and a
 *    move that leaves the source empty.
 *
 * Engine-wide update semantics (shared by every update path so they can be
 * cross-checked for equivalence):
 *  - inserting an edge that already exists *accumulates* its weight
 *    (commutative, hence deterministic under any parallel schedule);
 *  - each batch applies all insertions before any deletions (the paper's
 *    HAU ordering rule, adopted globally);
 *  - deletion of a non-existent edge is a no-op.
 *
 * An `EdgeSet` provides:
 *
 *     ApplyResult insert(Neighbor nbr, const StoreTuning& tuning);
 *     ApplyResult remove(VertexId nbr_id);
 *     std::uint32_t size() const;
 *     <range of Neighbor> view() const;   // the GraphReadPath `edges`
 *
 * and, for @ref BasicStore::apply_coalesced only, `view_mut()` (a range of
 * `Neighbor&`) plus `append(Neighbor, const StoreTuning&)` for a neighbor
 * known to be absent.  Synchronization is the caller's: the update
 * kernels hold `lock(v, dir)` (baseline) or own the vertex's run
 * (reordered paths).
 */
#ifndef IGS_GRAPH_BASIC_STORE_H
#define IGS_GRAPH_BASIC_STORE_H

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_table.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "graph/dirty_set_view.h"
#include "graph/graph_store.h"
#include "graph/store_tuning.h"
#include "graph/vertex_id_map.h"

namespace igs::graph {

/** Outcome of a single duplicate-check-and-apply operation. */
struct ApplyResult {
    /** True if the edge already existed (weight accumulated / deletable). */
    bool found = false;
    /** Elements examined by the duplicate-check scan. */
    std::uint32_t probes = 0;
    /** Edge-array length *before* the operation (drives lock-cost models). */
    std::uint32_t len_before = 0;
};

/**
 * Per-vertex OCA field: the batch id in which each vertex last appeared as
 * a source.  Logical-indexed (renumbering never permutes it).  Growth and
 * moves are single-threaded, between batches.
 */
class LatestBids {
  public:
    LatestBids() = default;
    LatestBids(LatestBids&& other) noexcept
        : bids_(std::move(other.bids_)), size_(std::exchange(other.size_, 0))
    {
    }
    LatestBids& operator=(LatestBids&&) = delete;

    /** Grow to at least `n` entries, keeping existing values. */
    void
    grow(std::size_t n)
    {
        if (n <= size_) {
            return;
        }
        auto bigger = std::make_unique<std::atomic<std::uint64_t>[]>(n);
        for (std::size_t i = 0; i < size_; ++i) {
            bigger[i].store(bids_[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        }
        bids_ = std::move(bigger);
        size_ = n;
    }

    std::uint64_t
    at(VertexId v) const
    {
        return bids_[v].load(std::memory_order_relaxed);
    }

    /** The exchange makes OCA's "first touch in this batch" detection
     *  exactly-once under parallel updates. */
    std::uint64_t
    exchange_at(VertexId v, std::uint64_t bid)
    {
        return bids_[v].exchange(bid, std::memory_order_relaxed);
    }

  private:
    std::unique_ptr<std::atomic<std::uint64_t>[]> bids_;
    std::size_t size_ = 0;
};

/** Copy of `v`'s `dir` edges sorted by neighbor id (any read path). */
template <typename G>
std::vector<Neighbor>
sorted_edges(const G& g, VertexId v, Direction dir)
{
    const auto& edges = g.edges(v, dir);
    std::vector<Neighbor> copy(edges.begin(), edges.end());
    std::sort(copy.begin(), copy.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
    return copy;
}

/**
 * Structural equality of two read paths: same vertex count, same
 * neighbor ids per vertex and direction (order-insensitive), weights
 * within 1e-4.
 */
template <typename A, typename B>
bool
same_topology(const A& a, const B& b)
{
    if (a.num_vertices() != b.num_vertices()) {
        return false;
    }
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto ea = sorted_edges(a, v, dir);
            const auto eb = sorted_edges(b, v, dir);
            if (ea.size() != eb.size()) {
                return false;
            }
            for (std::size_t i = 0; i < ea.size(); ++i) {
                if (ea[i].id != eb[i].id ||
                    std::abs(ea[i].weight - eb[i].weight) > 1e-4f) {
                    return false;
                }
            }
        }
    }
    return true;
}

/** Dynamic directed graph over one `EdgeSet` per vertex and direction. */
template <typename EdgeSet>
class BasicStore {
  public:
    /** A graph over vertices [0, num_vertices). */
    explicit BasicStore(std::size_t num_vertices = 0,
                        const StoreTuning& tuning = {})
        : tuning_(tuning)
    {
        ensure_vertices(num_vertices);
    }

    /**
     * Movable (single-threaded only — not during a parallel update).  The
     * moved-from store is left empty and reusable: zero vertices, zero
     * edges, epoch 0, no latest-bid table and the identity id map.
     */
    BasicStore(BasicStore&& other) noexcept
        : out_(std::move(other.out_)), in_(std::move(other.in_)),
          out_locks_(std::move(other.out_locks_)),
          in_locks_(std::move(other.in_locks_)),
          latest_bid_(std::move(other.latest_bid_)),
          epoch_(std::exchange(other.epoch_, 0)), map_(std::move(other.map_)),
          tuning_(other.tuning_),
          num_edges_(other.num_edges_.exchange(0, std::memory_order_relaxed))
    {
        other.map_.reset();
    }

    /** The atomic edge count suppresses the implicit move-assignment;
     *  deleting it says so. */
    BasicStore& operator=(BasicStore&&) = delete;

    /** Replace the tuning.  Takes effect on future inserts only. */
    void set_tuning(const StoreTuning& tuning) { tuning_ = tuning; }
    const StoreTuning& tuning() const { return tuning_; }

    /** Number of vertex slots. */
    std::size_t num_vertices() const { return out_.size(); }

    /** Directed edge count (each streamed edge contributes one out-entry
     *  and one in-entry; this counts out-entries). */
    EdgeId num_edges() const { return num_edges_; }

    /**
     * Grow the vertex space to at least `n` slots.  Single-threaded,
     * between batches; edges and latest bids are preserved.  Locks are
     * only held during a parallel update phase, so fresh (unlocked) lock
     * arrays are equivalent to the old ones.
     */
    void
    ensure_vertices(std::size_t n)
    {
        if (n <= out_.size()) {
            return;
        }
        out_.resize(n);
        in_.resize(n);
        latest_bid_.grow(n);
        out_locks_.resize(n);
        in_locks_.resize(n);
    }

    /** Duplicate-check then insert `nbr` into `v`'s `dir` edge set; a hit
     *  accumulates the weight. */
    ApplyResult
    apply_insert(VertexId v, Neighbor nbr, Direction dir)
    {
        EdgeSet& set = row(v, dir);
        // igs-lint: allow(hot-path-alloc) -- streamed insert is the workload
        const ApplyResult r = set.insert(nbr, tuning_);
        if (!r.found && dir == Direction::kOut) {
            num_edges_.fetch_add(1, std::memory_order_relaxed);
        }
        return r;
    }

    /** Remove the edge to `nbr_id` from `v`'s `dir` edge set if present. */
    ApplyResult
    apply_remove(VertexId v, VertexId nbr_id, Direction dir)
    {
        EdgeSet& set = row(v, dir);
        const ApplyResult r = set.remove(nbr_id);
        if (r.found && dir == Direction::kOut) {
            num_edges_.fetch_sub(1, std::memory_order_relaxed);
        }
        return r;
    }

    /**
     * USC coalesced apply (stream/updaters.h, Fig 8 steps 2-4): one scan of
     * `v`'s edges draining in-place weight matches from `table`, then the
     * remaining table entries are appended.  Returns the number of appended
     * edges; `num_edges` is updated once per call.  Caller owns
     * synchronization (run ownership).
     */
    std::size_t
    apply_coalesced(VertexId v, Direction dir, FlatWeightTable& table)
    {
        EdgeSet& set = row(v, dir);
        for (Neighbor& n : set.view_mut()) {
            Weight w = 0.0f;
            if (table.drain(n.id, &w)) {
                n.weight += w;
            }
        }
        std::size_t appended = 0;
        table.for_each([&](VertexId target, Weight w) {
            // igs-lint: allow(hot-path-alloc) -- amortized append
            set.append(Neighbor{target, w}, tuning_);
            ++appended;
        });
        if (dir == Direction::kOut && appended != 0) {
            num_edges_.fetch_add(appended, std::memory_order_relaxed);
        }
        return appended;
    }

    /** Per-vertex/per-direction lock for the baseline update path.  Lock
     *  index follows row placement; locks are stateless between batches,
     *  so a renumber never needs to permute them. */
    Spinlock&
    lock(VertexId v, Direction dir)
    {
        const VertexId p = map_.to_physical(v);
        return dir == Direction::kOut ? out_locks_[p] : in_locks_[p];
    }

    /** `v`'s edge set (tests and representation probes). */
    const EdgeSet&
    edge_set(VertexId v, Direction dir) const
    {
        const VertexId p = map_.to_physical(v);
        return dir == Direction::kOut ? out_[p] : in_[p];
    }

    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).size();
    }

    /** Iterable neighbor range (graph::GraphReadPath); unordered.
     *  Invalidated by any mutation of `v`'s `dir` set. */
    decltype(auto)
    edges(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).view();
    }

    /** Sorted copy of `v`'s edges (tests / diffs). */
    std::vector<Neighbor>
    sorted_edges(VertexId v, Direction dir) const
    {
        return graph::sorted_edges(*this, v, dir);
    }

    /** OCA support: batch id in which `v` last appeared as a source. */
    std::uint64_t latest_bid(VertexId v) const { return latest_bid_.at(v); }

    /** Atomically set `v`'s latest batch id, returning the previous one. */
    std::uint64_t
    exchange_latest_bid(VertexId v, std::uint64_t bid)
    {
        return latest_bid_.exchange_at(v, bid);
    }

    /**
     * Epoch token (graph/graph_store.h).  Counts compute hand-offs: the
     * engine bumps it each time it publishes a snapshot.  Plain
     * (non-atomic) — publication happens on the ingest thread between
     * batches, never concurrently with an update phase.
     */
    EpochId epoch() const { return epoch_; }

    /** Advance to the next epoch and return the new token. */
    EpochId advance_epoch() { return ++epoch_; }

    /**
     * Read path annotated with an epoch's dirty set (sorted, deduplicated
     * — PendingWork::affected).  Declared backend capability
     * (tools/layers.toml [semantic.backends.*]); incremental analytics
     * seed their delta propagation from it (DESIGN.md §14).
     */
    DirtySetView<BasicStore>
    dirty_view(std::span<const VertexId> dirty) const
    {
        return DirtySetView<BasicStore>(*this, dirty);
    }

    /**
     * Re-place edge sets under a new logical->physical assignment (a
     * permutation of [0, num_vertices()); see LocalityRenumberer).  Sets
     * are move-permuted whole — payloads (logical neighbor ids, any heap
     * arrays or hash indexes) travel with them — and `latest_bid` stays
     * logical-indexed, so every public read is invariant under this call.
     * Single-threaded, between batches, like `ensure_vertices`.
     */
    void
    apply_renumber(std::span<const VertexId> l2p)
    {
        IGS_CHECK_MSG(l2p.size() == out_.size(),
                      "apply_renumber: assignment must cover the vertex "
                      "space");
        const std::size_t n = out_.size();
        std::vector<EdgeSet> new_out(n);
        std::vector<EdgeSet> new_in(n);
        for (std::size_t l = 0; l < n; ++l) {
            const VertexId p_old = map_.to_physical(static_cast<VertexId>(l));
            new_out[l2p[l]] = std::move(out_[p_old]);
            new_in[l2p[l]] = std::move(in_[p_old]);
        }
        out_ = std::move(new_out);
        in_ = std::move(new_in);
        map_.rebind(l2p);
    }

    /** The logical/physical id map (identity until `apply_renumber`). */
    const VertexIdMap& id_map() const { return map_; }

  protected:
    /** `v`'s mutable `dir` edge set, translated at the API boundary. */
    EdgeSet&
    row(VertexId v, Direction dir)
    {
        const VertexId p = map_.to_physical(v);
        IGS_DCHECK(p < out_.size());
        return dir == Direction::kOut ? out_[p] : in_[p];
    }

    std::vector<EdgeSet> out_;
    std::vector<EdgeSet> in_;

  private:
    SpinlockArray out_locks_;
    SpinlockArray in_locks_;
    LatestBids latest_bid_;
    EpochId epoch_ = 0;
    VertexIdMap map_;
    StoreTuning tuning_;
    std::atomic<EdgeId> num_edges_{0};
};

} // namespace igs::graph

#endif // IGS_GRAPH_BASIC_STORE_H
