/**
 * @file
 * Input-aware locality renumbering: the online monitor that watches the
 * stream's access locality and the planner that produces a new
 * logical->physical assignment when it degrades (DESIGN.md §16).
 *
 * The decision structure mirrors ABR: cheap per-batch instrumentation, a
 * smoothed score, and a threshold that separates "leave the layout
 * alone" from "pay for a renumber now because the stream will amortize
 * it".  Two safeguards keep the trigger honest:
 *
 *  - a *skew gate*: when the access histogram of a window is close to
 *    uniform (no hot set to compact), the window scores a perfect 1.0 —
 *    no layout can beat another on uniform traffic, so the policy must
 *    never fire on it ("A Closer Look at Lightweight Graph Reordering",
 *    PAPERS.md, is explicit that reordering uniform inputs only costs);
 *  - warmup and cooldown windows, so one noisy batch neither triggers a
 *    renumber nor re-triggers immediately after one.
 *
 * The planner (@ref LocalityRenumberer) implements the two lightweight
 * orders that paper evaluates: hub-sort (descending degree) and
 * degree-group (log2-degree buckets, hot buckets first, stable inside a
 * bucket).  Both are deterministic: ties break on ascending logical id.
 */
#ifndef IGS_GRAPH_RENUMBER_H
#define IGS_GRAPH_RENUMBER_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/vertex_id_map.h"

namespace igs::graph {

/** Which lightweight reordering the planner produces. */
enum class RenumberMode : std::uint8_t {
    kHubSort,     ///< descending total degree, ties on ascending id
    kDegreeGroup, ///< log2-degree buckets hot-first, stable within bucket
};

const char* to_string(RenumberMode mode);

/** Trigger policy + monitor tuning (EngineConfig::renumber). */
struct RenumberParams {
    /** Master switch.  Off (the default) keeps every backend on the
     *  identity map — the engine's behavior is bit-identical to the
     *  pre-indirection code and no renumber telemetry is registered. */
    bool enabled = false;
    RenumberMode mode = RenumberMode::kHubSort;
    /** Fire when the locality EWMA drops below this. */
    double threshold = 0.55;
    /** EWMA smoothing factor for per-window scores. */
    double ewma_alpha = 0.3;
    /** Skew gate: a window whose hot set is not at least this many times
     *  denser than uniform scores 1.0 (nothing to compact). */
    double min_skew = 2.0;
    /** Fraction of window accesses the "hot set" must cover. */
    double hot_coverage = 0.75;
    /** Adjacency-row headers per modeled cache line (the placement-
     *  density unit; must match sim::RenumberMeter's address model). */
    std::uint32_t rows_per_line = 8;
    /** Windows observed before the trigger may fire at all. */
    std::uint32_t warmup_windows = 4;
    /** Windows after a renumber during which the trigger is masked. */
    std::uint32_t cooldown_windows = 8;
    /**
     * Re-fire hysteresis: after a renumber, the trigger only fires again
     * once the EWMA drops below refire_factor times the score the *last*
     * renumber actually achieved (its first post-pass window).  The
     * planner is deterministic, so when the achieved score is itself
     * modest — degree order is an imperfect proxy for access frequency —
     * re-planning from near-identical degrees would reproduce the same
     * layout and pay the pass for nothing; only a genuine shift in the
     * stream's hot set (placement decaying well below what the plan
     * achieved) justifies paying again.
     */
    double refire_factor = 0.7;
};

/**
 * Per-window access-locality statistics.  One window = one ingested
 * batch: the engine feeds every src/dst row touch, then closes the
 * window against the backend's current id map.  All state is owned by
 * the ingest thread; cost per touch is one counter bump.  Closing a
 * window costs O(touched + max count): a counting pass over the touched
 * vertices' counts finds the hot set's size (all the skew gate needs),
 * per-id work runs only for windows that pass the gate, and the
 * histogram reset touches only the vertices the window actually saw.
 */
class LocalityMonitor {
  public:
    explicit LocalityMonitor(const RenumberParams& params = {})
        : params_(params)
    {
    }

    const RenumberParams& params() const { return params_; }

    /** Record one row access (a batch edge touches src and dst). */
    void
    observe(VertexId v)
    {
        if (v >= counts_.size()) {
            counts_.resize(v + 1, 0);
        }
        if (counts_[v]++ == 0) {
            touched_.push_back(v);
        }
        ++accesses_;
    }

    /**
     * Close the current window: score the placement density of its hot
     * set under `map`, fold the score into the EWMA, and reset the
     * histogram.  Returns the updated EWMA.
     */
    double end_window(const VertexIdMap& map);

    /** Trigger verdict for the window just closed (ABR-style). */
    bool
    should_renumber() const
    {
        return windows_ >= params_.warmup_windows &&
               windows_since_renumber_ >= params_.cooldown_windows &&
               ewma_ < params_.threshold &&
               ewma_ < post_renumber_score_ * params_.refire_factor;
    }

    /** Tell the monitor a renumber was applied (starts the cooldown and
     *  resets the EWMA to optimistic — the new layout is dense). */
    void
    note_renumbered()
    {
        windows_since_renumber_ = 0;
        ewma_ = 1.0;
        capture_post_score_ = true;
    }

    double ewma() const { return ewma_; }
    double last_window_score() const { return last_score_; }
    std::uint64_t windows() const { return windows_; }

  private:
    /** Raw score of the open window in (0, 1]; 1.0 = nothing to gain. */
    double window_score(const VertexIdMap& map);

    RenumberParams params_;
    std::vector<std::uint32_t> counts_;
    std::vector<VertexId> touched_;
    /** Reused per window by window_score: touched vertices per count
     *  level, hot-set line ids, and the ids tied at the cut level. */
    std::vector<std::uint32_t> level_;
    std::vector<VertexId> lines_scratch_;
    std::vector<VertexId> cut_scratch_;
    std::uint64_t accesses_ = 0;
    double ewma_ = 1.0;
    double last_score_ = 1.0;
    /** Score the last renumber achieved (first post-pass window); 1.0
     *  until a renumber happens, so the first trigger is gated by the
     *  threshold alone (threshold < refire_factor * 1.0). */
    double post_renumber_score_ = 1.0;
    bool capture_post_score_ = false;
    std::uint64_t windows_ = 0;
    /** Saturating window counter since the last renumber; starts beyond
     *  any cooldown so the first trigger is gated by warmup alone. */
    std::uint64_t windows_since_renumber_ = ~0ull;
};

/**
 * Plans a new logical->physical assignment from per-vertex degrees.
 * The monitor decides *when* to renumber; the degrees decide the
 * *order*.  Stateless — `plan` is a pure function of its inputs.
 */
class LocalityRenumberer {
  public:
    /**
     * Produce l2p such that vertex ranks are assigned by `mode` over
     * `degrees` (total degree per logical id).  Deterministic: ties
     * break on ascending logical id.  The result is a permutation of
     * [0, degrees.size()) suitable for a backend's `apply_renumber`.
     */
    static std::vector<VertexId> plan(std::span<const std::uint64_t> degrees,
                                      RenumberMode mode);
};

} // namespace igs::graph

#endif // IGS_GRAPH_RENUMBER_H
