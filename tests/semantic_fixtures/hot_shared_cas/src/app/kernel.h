// Semantic fixture: per-edge Gauge::add on the hot path, once through a
// typed parameter and once through a field of a telemetry struct; the
// per-batch watermark carries a pragma and Table::add is not a Gauge.
#ifndef KERNEL_H
#define KERNEL_H
#include "app/tele.h"
inline void count_edge(Gauge& g, double probes) {
    g.add(probes);
}
inline void apply_batch(Table& table, int n) {
    auto& t = KernelTelemetry::get();
    for (int i = 0; i < n; ++i) {
        table.add(i);
        t.probes.add(1.0);
        t.peak.set(2.0);
        count_edge(t.probes, 2.0);
    }
    // igs-lint: allow(hot-path-shared-cas) -- once per batch
    t.peak.watermark(static_cast<double>(n));
}
#endif
