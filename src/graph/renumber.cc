#include "graph/renumber.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace igs::graph {

const char*
to_string(RenumberMode mode)
{
    switch (mode) {
      case RenumberMode::kHubSort:
        return "hub-sort";
      case RenumberMode::kDegreeGroup:
        return "degree-group";
    }
    return "?";
}

double
LocalityMonitor::window_score(const VertexIdMap& map)
{
    if (touched_.empty() || accesses_ == 0) {
        return 1.0;
    }
    // Counting pass: level_[c] = how many touched vertices the window saw
    // exactly c times.
    level_.clear();
    for (VertexId v : touched_) {
        const std::uint32_t c = counts_[v];
        if (c >= level_.size()) {
            level_.resize(c + 1, 0);
        }
        ++level_[c];
    }
    // Hot set: the smallest prefix of touched vertices in (count desc,
    // id asc) order covering hot_coverage of the window's accesses.  Walk
    // the levels hottest first; each takes the fewest of its vertices that
    // reach `want`, so the prefix ends `cut_take` vertices into level
    // `cut`.  `covered` counts accesses, so it is exact as a double and
    // `covered < want` holds exactly when `covered < target`.
    const double want =
        params_.hot_coverage * static_cast<double>(accesses_);
    const std::uint64_t target =
        want > 0.0 ? static_cast<std::uint64_t>(std::ceil(want)) : 0;
    std::uint64_t covered = 0;
    std::size_t hot = 0;
    std::uint32_t cut = 0;
    std::uint32_t cut_take = 0;
    for (std::uint32_t c = static_cast<std::uint32_t>(level_.size() - 1);
         c >= 1 && static_cast<double>(covered) < want; --c) {
        const std::uint64_t need = (target - covered + c - 1) / c;
        const auto taken = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(level_[c], need));
        covered += std::uint64_t{taken} * c;
        hot += taken;
        cut = c;
        cut_take = taken;
    }
    if (hot == 0) {
        return 1.0;
    }
    // Skew gate: under a uniform histogram the hot set is simply
    // hot_coverage of the distinct vertices, making this ratio 1.  A
    // window must concentrate its accesses at least min_skew times
    // tighter than that before layout can matter at all.
    const double skew = params_.hot_coverage *
                        static_cast<double>(touched_.size()) /
                        static_cast<double>(hot);
    if (skew < params_.min_skew) {
        return 1.0;
    }
    // Placement density: how many distinct row-lines the hot set's
    // *physical* placement spreads over, versus the minimum possible.
    // Every vertex above the cut level is hot; at the cut level the
    // id-ascending tie-break takes the cut_take smallest ids.
    lines_scratch_.clear();
    cut_scratch_.clear();
    for (VertexId v : touched_) {
        if (counts_[v] > cut) {
            lines_scratch_.push_back(map.to_physical(v) /
                                     params_.rows_per_line);
        } else if (counts_[v] == cut) {
            cut_scratch_.push_back(v);
        }
    }
    std::nth_element(cut_scratch_.begin(), cut_scratch_.begin() + cut_take,
                     cut_scratch_.end());
    for (std::uint32_t i = 0; i < cut_take; ++i) {
        lines_scratch_.push_back(map.to_physical(cut_scratch_[i]) /
                                 params_.rows_per_line);
    }
    std::sort(lines_scratch_.begin(), lines_scratch_.end());
    const std::size_t actual =
        static_cast<std::size_t>(std::unique(lines_scratch_.begin(),
                                             lines_scratch_.end()) -
                                 lines_scratch_.begin());
    const std::size_t min_lines =
        (hot + params_.rows_per_line - 1) / params_.rows_per_line;
    return static_cast<double>(min_lines) / static_cast<double>(actual);
}

double
LocalityMonitor::end_window(const VertexIdMap& map)
{
    last_score_ = window_score(map);
    if (capture_post_score_) {
        post_renumber_score_ = last_score_;
        capture_post_score_ = false;
    }
    for (VertexId v : touched_) {
        counts_[v] = 0;
    }
    touched_.clear();
    accesses_ = 0;
    ewma_ = (1.0 - params_.ewma_alpha) * ewma_ +
            params_.ewma_alpha * last_score_;
    ++windows_;
    if (windows_since_renumber_ != ~0ull) {
        ++windows_since_renumber_;
    }
    return ewma_;
}

std::vector<VertexId>
LocalityRenumberer::plan(std::span<const std::uint64_t> degrees,
                         RenumberMode mode)
{
    const std::size_t n = degrees.size();
    std::vector<VertexId> order(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = static_cast<VertexId>(i);
    }
    if (mode == RenumberMode::kHubSort) {
        std::sort(order.begin(), order.end(),
                  [&](VertexId a, VertexId b) {
                      return degrees[a] != degrees[b]
                                 ? degrees[a] > degrees[b]
                                 : a < b;
                  });
    } else {
        // Degree-group: log2 buckets, hot buckets first; the sort is on
        // (bucket desc, id asc), which is stable within a bucket by
        // construction.
        std::sort(order.begin(), order.end(),
                  [&](VertexId a, VertexId b) {
                      const int ba = std::bit_width(degrees[a]);
                      const int bb = std::bit_width(degrees[b]);
                      return ba != bb ? ba > bb : a < b;
                  });
    }
    std::vector<VertexId> l2p(n);
    for (std::size_t rank = 0; rank < n; ++rank) {
        l2p[order[rank]] = static_cast<VertexId>(rank);
    }
    return l2p;
}

} // namespace igs::graph
