/**
 * @file
 * Degree-Aware Hashing (DAH) dynamic graph structure.
 *
 * The alternative SAGA-Bench structure the paper compares against in
 * §6.2.3: low-degree vertices keep a plain edge array (cache-friendly, no
 * hashing overhead); once a vertex's degree crosses a threshold its edge set
 * is migrated into an open-addressed hash table so duplicate checks become
 * O(1) instead of an O(degree) scan.
 *
 * The edge set is @ref DahEdgeSet; the store around it is
 * graph::BasicStore, as for AdjacencyList and HybridStore.
 */
#ifndef IGS_GRAPH_DEGREE_AWARE_HASH_H
#define IGS_GRAPH_DEGREE_AWARE_HASH_H

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/types.h"
#include "graph/basic_store.h"
#include "graph/store_tuning.h"

namespace igs::graph {

/**
 * Per-vertex edge container that is an array below `kHashThreshold` and an
 * open-addressed hash table above it.
 */
class DahEdgeSet {
  public:
    /** Default degree at which a vertex migrates from array to hash
     *  storage; the effective value is runtime-tunable
     *  (StoreTuning::dah_hash_threshold, same default). */
    static constexpr std::uint32_t kHashThreshold = 32;

    /** Duplicate-check then insert (a hit accumulates the weight);
     *  migrates to the hash table at StoreTuning::dah_hash_threshold. */
    ApplyResult insert(Neighbor nbr, const StoreTuning& tuning);
    /** Remove if present (no-op otherwise); never migrates back. */
    ApplyResult remove(VertexId nbr_id);

    std::uint32_t size() const { return count_; }
    bool hashed() const { return !table_.empty(); }

  private:
    struct Slot {
        VertexId id = kInvalidVertex;
        Weight weight = 0.0f;
    };

  public:
    /**
     * Forward iterator over the stored neighbors, representation-blind:
     * walks the plain array below the migration threshold and skips the
     * empty slots of the open-addressed table above it.  Dereference
     * yields @ref Neighbor by value (hash slots store id/weight in a
     * different layout, so there is no Neighbor lvalue to point at).
     */
    class ConstIterator {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Neighbor;
        using difference_type = std::ptrdiff_t;

        ConstIterator() = default;

        Neighbor
        operator*() const
        {
            return array_ != nullptr ? *array_
                                     : Neighbor{slot_->id, slot_->weight};
        }

        ConstIterator&
        operator++()
        {
            if (array_ != nullptr) {
                ++array_;
            } else {
                ++slot_;
                skip_empty();
            }
            return *this;
        }

        ConstIterator
        operator++(int)
        {
            ConstIterator tmp = *this;
            ++*this;
            return tmp;
        }

        friend bool operator==(const ConstIterator&,
                               const ConstIterator&) = default;

      private:
        friend class DahEdgeSet;
        ConstIterator(const Neighbor* array, const Slot* slot,
                      const Slot* slot_end)
            : array_(array), slot_(slot), slot_end_(slot_end)
        {
            skip_empty();
        }

        void
        skip_empty()
        {
            while (slot_ != slot_end_ && slot_->id == kInvalidVertex) {
                ++slot_;
            }
        }

        const Neighbor* array_ = nullptr;
        const Slot* slot_ = nullptr;
        const Slot* slot_end_ = nullptr;
    };

    /** Iterable view of the set (graph::GraphReadPath `edges` range). */
    class View {
      public:
        ConstIterator begin() const { return begin_; }
        ConstIterator end() const { return end_; }

      private:
        friend class DahEdgeSet;
        View(ConstIterator begin, ConstIterator end)
            : begin_(begin), end_(end)
        {
        }

        ConstIterator begin_;
        ConstIterator end_;
    };

    /** View of the live representation; invalidated by insert/remove. */
    View
    view() const
    {
        if (table_.empty()) {
            const Neighbor* a = array_.data();
            return View(ConstIterator(a, nullptr, nullptr),
                        ConstIterator(a + array_.size(), nullptr, nullptr));
        }
        const Slot* s = table_.data();
        const Slot* e = s + table_.size();
        return View(ConstIterator(nullptr, s, e),
                    ConstIterator(nullptr, e, e));
    }

  private:
    void migrate_to_hash();
    void grow_table();
    ApplyResult hash_insert(Neighbor nbr);

    std::vector<Neighbor> array_;
    std::vector<Slot> table_; // empty until migrated
    std::uint32_t count_ = 0;
};

// Array, hash table, then the count in one padded word.
static_assert(sizeof(DahEdgeSet) ==
                  2 * sizeof(std::vector<Neighbor>) + sizeof(std::uint64_t),
              "DahEdgeSet must not grow");

/** Dynamic directed graph with degree-aware hashed edge sets. */
class DegreeAwareHash : public BasicStore<DahEdgeSet> {
  public:
    using BasicStore::BasicStore;
};

static_assert(GraphStore<DegreeAwareHash>,
              "DegreeAwareHash must satisfy the versioned read-path concept");

} // namespace igs::graph

#endif // IGS_GRAPH_DEGREE_AWARE_HASH_H
