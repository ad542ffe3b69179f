#include "stream/batch.h"

#include <algorithm>
#include <vector>

#include "common/flat_table.h"

namespace igs::stream {

namespace {

/**
 * Count the batch degree of every distinct `key(e)` in `table`, then fold
 * the counts into `unique`, `max_degree` and N(k).  Counts accumulate as
 * whole floats, exact up to 2^24 edges per vertex and batch.
 */
template <typename Key>
void
count_degrees(std::span<const StreamEdge> edges, Key key,
              FlatWeightTable& table, std::uint32_t& unique,
              std::uint32_t& max_degree, Histogram& histogram)
{
    table.reset(edges.size());
    for (const StreamEdge& e : edges) {
        table.add(key(e), 1.0f);
    }
    // N(k) densely first (k <= |batch|), so the sparse histogram takes one
    // insert per distinct degree rather than one per vertex.
    std::vector<std::uint32_t> vertices_of_degree(edges.size() + 1, 0);
    unique = static_cast<std::uint32_t>(table.size());
    table.for_each([&](VertexId, Weight count) {
        const auto degree = static_cast<std::uint32_t>(count);
        max_degree = std::max(max_degree, degree);
        ++vertices_of_degree[degree];
    });
    for (std::uint32_t k = 1; k <= max_degree; ++k) {
        if (vertices_of_degree[k] != 0) {
            histogram.add(k, vertices_of_degree[k]);
        }
    }
}

} // namespace

BatchDegreeStats
compute_batch_degree_stats(std::span<const StreamEdge> edges)
{
    BatchDegreeStats s;
    FlatWeightTable table; // shared by both directions
    count_degrees(
        edges, [](const StreamEdge& e) { return e.src; }, table,
        s.unique_sources, s.max_out_degree, s.out_degree_histogram);
    count_degrees(
        edges, [](const StreamEdge& e) { return e.dst; }, table,
        s.unique_destinations, s.max_in_degree, s.in_degree_histogram);
    return s;
}

} // namespace igs::stream
