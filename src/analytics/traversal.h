/**
 * @file
 * Extension algorithms: BFS (hop distance) and connected components
 * (label propagation over the undirected view).  Not part of the paper's
 * four evaluated algorithms; used by examples and as additional compute
 * workloads.
 */
#ifndef IGS_ANALYTICS_TRAVERSAL_H
#define IGS_ANALYTICS_TRAVERSAL_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/graph_store.h"

namespace igs::analytics {

/** BFS hop distances from `source` over out-edges; unreachable = ~0u. */
template <typename Graph>
    requires graph::GraphReadPath<Graph>
std::vector<std::uint32_t>
bfs_distances(const Graph& g, VertexId source)
{
    const std::size_t n = g.num_vertices();
    std::vector<std::uint32_t> dist(n, ~0u);
    if (n == 0) {
        return dist;
    }
    IGS_CHECK(source < n);
    dist[source] = 0;
    std::vector<VertexId> frontier{source};
    while (!frontier.empty()) {
        std::vector<VertexId> next;
        for (VertexId v : frontier) {
            for (const Neighbor& e : g.edges(v, Direction::kOut)) {
                if (dist[e.id] == ~0u) {
                    dist[e.id] = dist[v] + 1;
                    next.push_back(e.id);
                }
            }
        }
        frontier.swap(next);
    }
    return dist;
}

/**
 * Connected components over the undirected view (out- plus in-edges),
 * by label propagation; returns the component label per vertex (the
 * minimum vertex id in the component).
 */
template <typename Graph>
    requires graph::GraphReadPath<Graph>
std::vector<VertexId>
connected_components(const Graph& g)
{
    const std::size_t n = g.num_vertices();
    std::vector<VertexId> label(n);
    for (VertexId v = 0; v < n; ++v) {
        label[v] = v;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (VertexId v = 0; v < n; ++v) {
            VertexId best = label[v];
            for (Direction dir : {Direction::kOut, Direction::kIn}) {
                for (const Neighbor& e : g.edges(v, dir)) {
                    best = std::min(best, label[e.id]);
                }
            }
            if (best < label[v]) {
                label[v] = best;
                changed = true;
            }
        }
    }
    return label;
}

} // namespace igs::analytics

#endif // IGS_ANALYTICS_TRAVERSAL_H
