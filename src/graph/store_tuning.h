/**
 * @file
 * Runtime tuning knobs of the graph stores.
 *
 * Every graph::BasicStore holds one StoreTuning (constructor argument or
 * `set_tuning`; the engine passes EngineConfig::store) and hands it to
 * its edge set on each insert.  The adaptive edge sets read the degree
 * at which they change representation from it — DahEdgeSet
 * (DegreeAwareHash) and HybridEdgeSet (HybridStore); AdjacencyEdges has
 * a single representation and ignores it.  Runtime values let benches
 * sweep the thresholds and let golden runs pin (and report) the exact
 * values they were produced with: every bench's JSON `host` block echoes
 * the active tuning so golden diffs are threshold-aware
 * (tools/golden_check.py).
 *
 * The defaults are the historical compile-time constants.
 */
#ifndef IGS_GRAPH_STORE_TUNING_H
#define IGS_GRAPH_STORE_TUNING_H

#include <cstdint>

namespace igs::graph {

/** Tier/migration thresholds for the adaptive edge sets. */
struct StoreTuning {
    /**
     * DegreeAwareHash: degree at which a vertex's edge array migrates to
     * an open-addressed hash table (historically
     * DahEdgeSet::kHashThreshold).
     */
    std::uint32_t dah_hash_threshold = 32;

    /**
     * HybridStore: degree at which a tier-1 sorted array promotes to the
     * tier-2 hash-indexed representation.  (The tier-0 -> tier-1
     * promotion point is HybridEdgeSet::kInlineCapacity, a compile-time
     * layout property of the vertex record, not a tunable.)
     */
    std::uint32_t hybrid_sorted_threshold = 128;
};

} // namespace igs::graph

#endif // IGS_GRAPH_STORE_TUNING_H
