#include "core/cad.h"

#include <algorithm>

#include "stream/batch.h"

namespace igs::core {

double
cad_from_histogram(const Histogram& degree_histogram, std::size_t b,
                   std::uint32_t lambda)
{
    std::uint64_t y = 0; // edges from vertices with 1 <= degree <= lambda
    std::uint64_t x = 0; // unique vertices with degree > lambda
    for (const auto& [degree, count] : degree_histogram.bins()) {
        if (degree >= 1 && degree <= lambda) {
            y += degree * count;
        } else if (degree > lambda) {
            x += count;
        }
    }
    if (x == 0) {
        return 0.0;
    }
    return static_cast<double>(b - y) / static_cast<double>(x);
}

CadResult
cad_from_reordered(const stream::ReorderedBatch& rb, std::uint32_t lambda)
{
    CadResult r;
    Histogram out_h;
    for (const stream::VertexRun& run : rb.by_src.runs) {
        out_h.add(run.size());
        r.max_out_degree = std::max(r.max_out_degree, run.size());
    }
    Histogram in_h;
    for (const stream::VertexRun& run : rb.by_dst.runs) {
        in_h.add(run.size());
        r.max_in_degree = std::max(r.max_in_degree, run.size());
    }
    r.cad_out = cad_from_histogram(out_h, rb.batch_size, lambda);
    r.cad_in = cad_from_histogram(in_h, rb.batch_size, lambda);
    return r;
}

CadResult
cad_from_batch(std::span<const StreamEdge> edges, std::uint32_t lambda)
{
    // The paper populates an Intel-TBB concurrent hash map from the update
    // threads.  The host counts the same per-vertex degrees serially on
    // the calling thread; the model still charges the concurrent map
    // (AbrParams::instr_cycles_per_edge_hashed).
    const stream::BatchDegreeStats s = stream::compute_batch_degree_stats(edges);
    CadResult r;
    r.max_out_degree = s.max_out_degree;
    r.max_in_degree = s.max_in_degree;
    r.cad_out = cad_from_histogram(s.out_degree_histogram, edges.size(), lambda);
    r.cad_in = cad_from_histogram(s.in_degree_histogram, edges.size(), lambda);
    return r;
}

} // namespace igs::core
