#include "graph/indexed_adjacency.h"

namespace igs::graph {

IndexedAdjacency::IndexedAdjacency(std::size_t num_vertices)
{
    ensure_vertices(num_vertices);
}

void
IndexedAdjacency::ensure_vertices(std::size_t n)
{
    if (n <= out_.size()) {
        return;
    }
    out_.resize(n);
    in_.resize(n);
    latest_bid_.grow(n);
}

ApplyResult
IndexedAdjacency::apply_insert(VertexId v, Neighbor nbr, Direction dir)
{
    IGS_DCHECK(v < out_.size());
    auto& edges = dir == Direction::kOut ? out_[v] : in_[v];
    auto& index = dir == Direction::kOut ? out_index_ : in_index_;
    ApplyResult r;
    r.len_before = static_cast<std::uint32_t>(edges.size());
    const std::uint64_t key = key_of(v, nbr.id);
    auto [it, inserted] = index.try_emplace(key, r.len_before);
    if (!inserted) {
        // Modeled scan stops at the match position.
        r.found = true;
        r.probes = it->second + 1;
        edges[it->second].weight += nbr.weight;
        return r;
    }
    // Modeled scan walks the whole array before appending.
    r.probes = r.len_before;
    // igs-lint: allow(hot-path-alloc) -- amortized edge-array growth
    edges.push_back(nbr);
    if (dir == Direction::kOut) {
        ++num_edges_;
    }
    return r;
}

ApplyResult
IndexedAdjacency::apply_remove(VertexId v, VertexId nbr_id, Direction dir)
{
    IGS_DCHECK(v < out_.size());
    auto& edges = dir == Direction::kOut ? out_[v] : in_[v];
    auto& index = dir == Direction::kOut ? out_index_ : in_index_;
    ApplyResult r;
    r.len_before = static_cast<std::uint32_t>(edges.size());
    const auto it = index.find(key_of(v, nbr_id));
    if (it == index.end()) {
        r.probes = r.len_before;
        return r;
    }
    const std::uint32_t pos = it->second;
    r.found = true;
    r.probes = pos + 1;
    index.erase(it);
    // Swap-with-last removal, mirroring AdjacencyList; keep the moved
    // neighbor's index entry coherent.
    const std::uint32_t last = r.len_before - 1;
    if (pos != last) {
        edges[pos] = edges[last];
        index[key_of(v, edges[pos].id)] = pos;
    }
    edges.pop_back();
    if (dir == Direction::kOut) {
        --num_edges_;
    }
    return r;
}

} // namespace igs::graph
