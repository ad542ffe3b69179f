/**
 * @file
 * Correctness gate of the wall-clock benchmark.
 *
 * @ref ReferenceGraph rebuilds the final graph from the same stream the
 * engine saw, independently of every engine data structure: a hash map
 * keyed by (src, dst) that follows the engine's batch semantics —
 * within a batch all insertions apply before all deletions, a duplicate
 * insertion accumulates weight, and a deletion removes the edge.  The
 * engine's out- and in-adjacency are flattened into sorted edge lists
 * and must equal the reference exactly (weights included: the streams
 * use unit or dyadic weights, so accumulation order cannot change a sum).
 *
 * On epoch workloads the memoized analytics are compared with a
 * from-scratch rerun on the final snapshot: SSSP and BFS exactly,
 * PageRank within @ref kPageRankTolerance (the incremental equivalence
 * harness's bound, with its tight convergence parameters).
 */
#ifndef PERFBENCH_CHECKER_H
#define PERFBENCH_CHECKER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analytics/incremental/analytics.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "common/types.h"

namespace perfbench {

using igs::Direction;
using igs::StreamEdge;
using igs::VertexId;
using igs::Weight;

/** One directed edge with its accumulated weight. */
struct FlatEdge {
    VertexId src = 0;
    VertexId dst = 0;
    Weight weight = 0.0f;

    friend bool operator==(const FlatEdge&, const FlatEdge&) = default;
    friend bool
    operator<(const FlatEdge& a, const FlatEdge& b)
    {
        if (a.src != b.src) {
            return a.src < b.src;
        }
        if (a.dst != b.dst) {
            return a.dst < b.dst;
        }
        return a.weight < b.weight;
    }
};

/** Per-vertex rank agreement bound (tests/test_incremental.cc). */
inline constexpr double kPageRankTolerance = 1e-8;

/** Stream-semantics reference of the engine's final graph. */
class ReferenceGraph {
  public:
    void
    apply_batch(std::span<const StreamEdge> ops)
    {
        for (const StreamEdge& e : ops) {
            if (!e.is_delete) {
                edges_[key(e.src, e.dst)] += e.weight;
            }
        }
        for (const StreamEdge& e : ops) {
            if (e.is_delete) {
                edges_.erase(key(e.src, e.dst));
            }
        }
    }

    /** The reference edge list, sorted by (src, dst). */
    std::vector<FlatEdge>
    sorted_edges() const
    {
        std::vector<FlatEdge> out;
        out.reserve(edges_.size());
        for (const auto& [k, w] : edges_) {
            out.push_back({static_cast<VertexId>(k >> 32),
                           static_cast<VertexId>(k & 0xffffffffu), w});
        }
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    static std::uint64_t
    key(VertexId src, VertexId dst)
    {
        return (static_cast<std::uint64_t>(src) << 32) | dst;
    }

    std::unordered_map<std::uint64_t, Weight> edges_;
};

/**
 * Flatten one direction of a graph's adjacency into (src, dst, weight)
 * triples sorted by (src, dst); in-edges are stored at their
 * destination, so they are flipped back to source-first order.
 */
template <typename Graph>
std::vector<FlatEdge>
flatten(const Graph& g, Direction dir)
{
    std::vector<FlatEdge> out;
    out.reserve(static_cast<std::size_t>(g.num_edges()));
    const std::size_t n = g.num_vertices();
    for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<VertexId>(i);
        for (const igs::Neighbor& nb : g.edges(v, dir)) {
            out.push_back(dir == Direction::kOut
                              ? FlatEdge{v, nb.id, nb.weight}
                              : FlatEdge{nb.id, v, nb.weight});
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Empty when `got` equals `want`; otherwise the first difference. */
inline std::string
diff_edges(const std::vector<FlatEdge>& want,
           const std::vector<FlatEdge>& got, const std::string& what)
{
    const std::size_t n = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(want[i] == got[i])) {
            return what + ": edge " + std::to_string(i) + " is (" +
                   std::to_string(got[i].src) + "," +
                   std::to_string(got[i].dst) + "," +
                   std::to_string(got[i].weight) + "), reference has (" +
                   std::to_string(want[i].src) + "," +
                   std::to_string(want[i].dst) + "," +
                   std::to_string(want[i].weight) + ")";
        }
    }
    if (want.size() != got.size()) {
        return what + ": " + std::to_string(got.size()) + " edges, reference has " +
               std::to_string(want.size());
    }
    return {};
}

/** Compare both adjacency directions of `g` against `reference`
 *  (already sorted).  Empty on success. */
template <typename Graph>
std::string
check_graph(const std::vector<FlatEdge>& reference, const Graph& g,
            const std::string& what)
{
    std::string err = diff_edges(reference, flatten(g, Direction::kOut),
                                 what + " out-adjacency");
    if (err.empty()) {
        err = diff_edges(reference, flatten(g, Direction::kIn),
                         what + " in-adjacency");
    }
    return err;
}

/**
 * Compare memoized analytics with a from-scratch rerun on `snap`: SSSP
 * and BFS exactly, PageRank within kPageRankTolerance per vertex.  Empty
 * on success.
 */
template <typename Graph>
std::string
check_analytics(const igs::analytics::incremental::IncrementalAnalytics& a,
                const Graph& snap)
{
    const auto& cfg = a.config();
    if (cfg.run_sssp &&
        a.sssp().distances() != igs::analytics::static_sssp(snap, cfg.sssp_source)) {
        return "SSSP distances differ from a from-scratch rerun";
    }
    if (cfg.run_bfs &&
        a.bfs().hops() != igs::analytics::bfs_distances(snap, cfg.bfs_source)) {
        return "BFS hops differ from a from-scratch rerun";
    }
    if (cfg.run_pagerank) {
        igs::analytics::incremental::PageRank fresh(cfg.pagerank);
        fresh.full_rerun(snap);
        const auto& got = a.pagerank().ranks();
        const auto& want = fresh.ranks();
        if (got.size() != want.size()) {
            return "PageRank covers " + std::to_string(got.size()) +
                   " vertices, rerun covers " + std::to_string(want.size());
        }
        for (std::size_t v = 0; v < got.size(); ++v) {
            if (!(std::abs(got[v] - want[v]) <= kPageRankTolerance)) {
                return "PageRank of vertex " + std::to_string(v) + " is " +
                       std::to_string(got[v]) + ", rerun gives " +
                       std::to_string(want[v]);
            }
        }
    }
    return {};
}

/**
 * Order-independent digest of a graph's logical adjacency (both
 * directions), so repeated passes can be checked against the one pass
 * that went through the full reference comparison without allocating.
 */
template <typename Graph>
std::uint64_t
graph_digest(const Graph& g)
{
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    };
    std::uint64_t h = 0;
    const std::size_t n = g.num_vertices();
    for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<VertexId>(i);
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            for (const igs::Neighbor& nb : g.edges(v, dir)) {
                std::uint32_t wbits = 0;
                std::memcpy(&wbits, &nb.weight, sizeof wbits);
                const std::uint64_t d = dir == Direction::kOut ? 1 : 2;
                h += mix(mix((static_cast<std::uint64_t>(v) << 32) | nb.id) ^
                         ((static_cast<std::uint64_t>(wbits) << 2) | d));
            }
        }
    }
    return h;
}

} // namespace perfbench

#endif // PERFBENCH_CHECKER_H
