/**
 * @file
 * The neighbor-id hash and the position index of the dense edge sets.
 *
 * GraphTango (PAPERS.md) keeps a hub's edges as a dense append-order array
 * plus an open-addressed index from neighbor id to array position, so a
 * duplicate check is O(1) while iteration stays a contiguous scan.  Two
 * edge sets use that layout: HybridEdgeSet's tier 2 (hybrid_store.h) and
 * the simulator's IndexedEdges (indexed_adjacency.h).  @ref PositionIndex
 * is the index they share.  It never owns the array: each call takes the
 * set's edge vector, which it reads (and, for append and remove, edits
 * together with the index).
 *
 * @ref hash_id is also DahEdgeSet's slot hash (degree_aware_hash.h).
 */
#ifndef IGS_GRAPH_POSITION_INDEX_H
#define IGS_GRAPH_POSITION_INDEX_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace igs::graph {

/** Integer mixer spreading neighbor ids over a power-of-two table. */
inline std::uint64_t
hash_id(VertexId id)
{
    std::uint64_t x = id;
    x ^= x >> 16;
    x *= 0x7feb352dull;
    x ^= x >> 15;
    x *= 0x846ca68bull;
    x ^= x >> 16;
    return x;
}

/** Slot count of a freshly built table for `n` entries: the smallest
 *  power of two, at least 16, that `n` fills to at most 3/8. */
inline std::size_t
initial_slots(std::size_t n)
{
    std::size_t cap = 16;
    while (cap * 3 < n * 4 * 2) {
        cap <<= 1;
    }
    return cap;
}

/**
 * Open-addressed (linear probing) index from neighbor id to position in a
 * dense edge array.  Slots hold position + 1 (0 = empty) in a power-of-two
 * table.  The table doubles, rebuilt from the array, before an insert
 * would take it past 3/4 load; deletion backshifts the probe cluster, so
 * there are no tombstones.  Unbuilt (no slots) until @ref build, or until
 * the first @ref reserve_one over an empty array.
 */
class PositionIndex {
  public:
    /** Table size of the first insert into an empty array: most vertices
     *  of a sparse stream keep a handful of edges. */
    static constexpr std::size_t kFirstSlots = 4;

    /** Outcome of @ref find. */
    struct Lookup {
        bool found = false;
        /** Occupied slots examined, the match included. */
        std::uint32_t probes = 0;
        /** Array position of the match (valid when `found`). */
        std::uint32_t pos = 0;
        /** Slot of the match, or the empty slot that ended the probe. */
        std::size_t slot = 0;
    };

    /** Index the whole of `edges` in a table of initial_slots(size). */
    void
    build(std::span<const Neighbor> edges)
    {
        rebuild(edges, initial_slots(edges.size()));
    }

    /** Make room for one more entry before an insert's @ref find: grow a
     *  table the insert would take past 3/4 load.  An unbuilt index must
     *  describe an empty array. */
    void
    reserve_one(std::span<const Neighbor> edges)
    {
        IGS_DCHECK(!slots_.empty() || edges.empty());
        if ((edges.size() + 1) * 4 >= slots_.size() * 3) {
            rebuild(edges, slots_.empty() ? kFirstSlots : slots_.size() * 2);
        }
    }

    /** Probe for `id` in `edges` (the array this index describes). */
    Lookup
    find(std::span<const Neighbor> edges, VertexId id) const
    {
        Lookup r;
        if (slots_.empty()) {
            return r;
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash_id(id) & mask;
        while (slots_[i] != 0) {
            ++r.probes;
            const std::uint32_t pos = slots_[i] - 1;
            if (edges[pos].id == id) {
                r.found = true;
                r.pos = pos;
                break;
            }
            i = (i + 1) & mask;
        }
        r.slot = i;
        return r;
    }

    /** Append `nbr`, whose id `miss` (a @ref find after @ref reserve_one)
     *  did not find, to `edges` and index it. */
    void
    append(std::vector<Neighbor>& edges, const Lookup& miss, Neighbor nbr)
    {
        IGS_DCHECK(!miss.found);
        // igs-lint: allow(hot-path-alloc) -- amortized dense-array growth
        edges.push_back(nbr);
        // Slots are 1-based uint32 positions; a set past 2^32-1 entries
        // would silently alias.
        IGS_DCHECK(edges.size() <= std::numeric_limits<std::uint32_t>::max());
        slots_[miss.slot] = static_cast<std::uint32_t>(edges.size());
    }

    /**
     * Remove the edge `hit` (a found @ref find) from `edges` by swapping
     * the last edge into its position, keeping the index coherent: the
     * hit's slot is backshift-deleted and the moved edge's slot is
     * repointed at its new position.
     */
    void
    swap_remove(std::vector<Neighbor>& edges, const Lookup& hit)
    {
        IGS_DCHECK(hit.found);
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = hit.slot;
        std::size_t j = (hole + 1) & mask;
        while (slots_[j] != 0) {
            const std::size_t home = hash_id(edges[slots_[j] - 1].id) & mask;
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        slots_[hole] = 0;
        const auto last = static_cast<std::uint32_t>(edges.size() - 1);
        if (hit.pos != last) {
            edges[hit.pos] = edges[last];
            std::size_t k = hash_id(edges[hit.pos].id) & mask;
            while (slots_[k] != last + 1) {
                IGS_DCHECK(slots_[k] != 0);
                k = (k + 1) & mask;
            }
            slots_[k] = hit.pos + 1;
        }
        edges.pop_back();
    }

  private:
    /** Re-index `edges` into `capacity` slots.  Positions are derivable
     *  from the array, so growth is a rebuild, not a rehash of old slots. */
    void
    rebuild(std::span<const Neighbor> edges, std::size_t capacity)
    {
        slots_.assign(capacity, 0);
        const std::size_t mask = capacity - 1;
        for (std::uint32_t p = 0; p < edges.size(); ++p) {
            std::size_t i = hash_id(edges[p].id) & mask;
            while (slots_[i] != 0) {
                i = (i + 1) & mask;
            }
            slots_[i] = p + 1;
        }
    }

    std::vector<std::uint32_t> slots_;
};

} // namespace igs::graph

#endif // IGS_GRAPH_POSITION_INDEX_H
