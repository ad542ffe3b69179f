#include "graph/degree_aware_hash.h"

#include "graph/position_index.h"

namespace igs::graph {

ApplyResult
DahEdgeSet::insert(Neighbor nbr, const StoreTuning& tuning)
{
    if (!table_.empty()) {
        return hash_insert(nbr);
    }
    ApplyResult r;
    r.len_before = static_cast<std::uint32_t>(array_.size());
    for (Neighbor& e : array_) {
        ++r.probes;
        if (e.id == nbr.id) {
            e.weight += nbr.weight;
            r.found = true;
            return r;
        }
    }
    // igs-lint: allow(hot-path-alloc) -- amortized neighbor-array growth
    array_.push_back(nbr);
    ++count_;
    if (count_ >= tuning.dah_hash_threshold) {
        migrate_to_hash();
    }
    return r;
}

ApplyResult
DahEdgeSet::hash_insert(Neighbor nbr)
{
    ApplyResult r;
    r.len_before = count_;
    if ((count_ + 1) * 4 >= table_.size() * 3) {
        grow_table();
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash_id(nbr.id) & mask;
    while (table_[i].id != kInvalidVertex) {
        ++r.probes;
        if (table_[i].id == nbr.id) {
            table_[i].weight += nbr.weight;
            r.found = true;
            return r;
        }
        i = (i + 1) & mask;
    }
    ++r.probes;
    table_[i] = {nbr.id, nbr.weight};
    ++count_;
    return r;
}

ApplyResult
DahEdgeSet::remove(VertexId nbr_id)
{
    ApplyResult r;
    r.len_before = count_;
    if (table_.empty()) {
        for (std::size_t i = 0; i < array_.size(); ++i) {
            ++r.probes;
            if (array_[i].id == nbr_id) {
                array_[i] = array_.back();
                array_.pop_back();
                --count_;
                r.found = true;
                return r;
            }
        }
        return r;
    }
    // Open addressing with linear probing: deletion re-inserts the cluster
    // tail (backshift deletion keeps probe sequences valid without
    // tombstones).
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash_id(nbr_id) & mask;
    while (table_[i].id != kInvalidVertex) {
        ++r.probes;
        if (table_[i].id == nbr_id) {
            r.found = true;
            --count_;
            // Backshift the rest of the cluster.
            std::size_t hole = i;
            std::size_t j = (i + 1) & mask;
            while (table_[j].id != kInvalidVertex) {
                const std::size_t home = hash_id(table_[j].id) & mask;
                const bool movable = ((j - home) & mask) >= ((j - hole) & mask);
                if (movable) {
                    table_[hole] = table_[j];
                    hole = j;
                }
                j = (j + 1) & mask;
            }
            table_[hole] = Slot{};
            return r;
        }
        i = (i + 1) & mask;
    }
    return r;
}

void
DahEdgeSet::migrate_to_hash()
{
    const std::size_t cap = initial_slots(count_);
    table_.assign(cap, Slot{});
    const std::size_t mask = cap - 1;
    for (const Neighbor& n : array_) {
        std::size_t i = hash_id(n.id) & mask;
        while (table_[i].id != kInvalidVertex) {
            i = (i + 1) & mask;
        }
        table_[i] = {n.id, n.weight};
    }
    array_.clear();
    array_.shrink_to_fit();
}

void
DahEdgeSet::grow_table()
{
    std::vector<Slot> old = std::move(table_);
    table_.assign(old.size() * 2, Slot{});
    const std::size_t mask = table_.size() - 1;
    for (const Slot& s : old) {
        if (s.id == kInvalidVertex) {
            continue;
        }
        std::size_t i = hash_id(s.id) & mask;
        while (table_[i].id != kInvalidVertex) {
            i = (i + 1) & mask;
        }
        table_[i] = s;
    }
}

} // namespace igs::graph
