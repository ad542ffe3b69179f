#include "stream/reorder.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/parallel_sort.h"
#include "common/telemetry.h"

namespace igs::stream {

namespace {

/** Reorderer telemetry, resolved once (see DESIGN.md §9 naming). */
struct ReorderTelemetry {
    telemetry::Counter& batches;
    telemetry::Counter& edges;
    telemetry::Counter& sort_passes;
    telemetry::Gauge& scratch_edges_watermark;
    telemetry::Gauge& scratch_hist_watermark;

    static ReorderTelemetry&
    get()
    {
        auto& r = telemetry::Registry::global();
        static ReorderTelemetry t{
            r.counter("stream.reorder.batches"),
            r.counter("stream.reorder.edges"),
            r.counter("stream.reorder.sort_passes"),
            r.gauge("stream.reorder.scratch_edges_watermark"),
            r.gauge("stream.reorder.scratch_hist_watermark"),
        };
        return t;
    }
};

} // namespace

std::vector<VertexRun>
build_runs(std::span<const StreamEdge> sorted, Direction key)
{
    // VertexRun offsets are 32-bit; a batch that would overflow them must
    // fail loudly rather than silently truncate run boundaries.
    IGS_CHECK_MSG(sorted.size() <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "batch too large for 32-bit run offsets");
    std::vector<VertexRun> runs;
    const auto key_of = [key](const StreamEdge& e) {
        return key == Direction::kOut ? e.src : e.dst;
    };
    std::size_t i = 0;
    while (i < sorted.size()) {
        const VertexId v = key_of(sorted[i]);
        std::size_t j = i + 1;
        while (j < sorted.size() && key_of(sorted[j]) == v) {
            ++j;
        }
        // Comparison-oracle path: the paper's baseline reorder allocates,
        // and the oracle matches it.  igs-lint: allow(hot-path-alloc)
        runs.push_back(VertexRun{v, static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(j)});
        i = j;
    }
    return runs;
}

ReorderedBatch
reorder_batch(std::span<const StreamEdge> edges, ThreadPool& pool)
{
    ReorderedBatch rb;
    rb.batch_size = edges.size();

    rb.by_src.edges.assign(edges.begin(), edges.end());
    parallel_stable_sort(
        rb.by_src.edges.begin(), rb.by_src.edges.end(),
        [](const StreamEdge& a, const StreamEdge& b) { return a.src < b.src; },
        pool);
    rb.by_src.runs = build_runs(rb.by_src.edges, Direction::kOut);

    rb.by_dst.edges.assign(edges.begin(), edges.end());
    parallel_stable_sort(
        rb.by_dst.edges.begin(), rb.by_dst.edges.end(),
        [](const StreamEdge& a, const StreamEdge& b) { return a.dst < b.dst; },
        pool);
    rb.by_dst.runs = build_runs(rb.by_dst.edges, Direction::kIn);

    return rb;
}

const char*
to_string(ReorderMode mode)
{
    switch (mode) {
      case ReorderMode::kRadix:
        return "radix";
      case ReorderMode::kComparison:
        return "comparison";
    }
    return "?";
}

VertexId
max_vertex_of(std::span<const StreamEdge> edges)
{
    VertexId max_v = 0;
    for (const StreamEdge& e : edges) {
        max_v = std::max({max_v, e.src, e.dst});
    }
    return max_v;
}

const ReorderedBatch&
Reorderer::reorder(std::span<const StreamEdge> edges, ThreadPool& pool)
{
    ReorderTelemetry& t = ReorderTelemetry::get();
    t.batches.inc();
    t.edges.inc(edges.size());
    t.sort_passes.inc(2); // one ordering by source, one by destination
    if (mode_ == ReorderMode::kRadix) {
        max_vertex_ = detail::reorder_batch_radix(edges, pool, scratch_);
    } else {
        // Comparison path: the paper's two stable sorts into the reused
        // ReorderedBatch storage (allocation behaviour matches the oracle).
        scratch_.rb = reorder_batch(edges, pool);
        max_vertex_ = max_vertex_of(edges);
    }
    // Arena high-water marks, in elements (DESIGN.md §9: watermark gauges
    // track steady-state capacity, the arena's zero-allocation guarantee).
    // igs-lint: allow(hot-path-shared-cas) -- once per batch, ingest thread
    t.scratch_edges_watermark.watermark(static_cast<double>(
        scratch_.rb.by_src.edges.capacity() +
        scratch_.rb.by_dst.edges.capacity() + scratch_.tmp.capacity()));
    // igs-lint: allow(hot-path-shared-cas) -- once per batch, ingest thread
    t.scratch_hist_watermark.watermark(static_cast<double>(
        scratch_.hist.capacity() + scratch_.hist_dst.capacity()));
    return scratch_.rb;
}

} // namespace igs::stream
