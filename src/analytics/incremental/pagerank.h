/**
 * @file
 * Memoized PageRank with dirty-set-seeded delta propagation — the one
 * incremental PageRank (the compute phase's Kineograph/SAGA-Bench model)
 * that the engines, benches and examples run.
 *
 * The kernel persists a @ref RankState across epochs and seeds each
 * delta round with the epoch's dirty set *and its out-neighborhood*: a
 * dirty vertex's out-degree may have changed, which alters the
 * contribution every one of its out-neighbors pulls — seeding only the
 * touched vertices would let ranks drift from the from-scratch fixpoint.
 * With the widened seed the pull-based propagation converges to the
 * same fixpoint static_pagerank converges to, up to the residual
 * tolerance (the randomized equivalence harness in
 * tests/test_incremental.cc pins this on all three backends).
 *
 * The delta round sweeps its frontier in place, in ascending vertex id
 * order over a word bitmap, and pulls memoized contributions
 * (rank / out-degree, Ingress-style) instead of dividing at every pull.
 * The full rerun stays a Jacobi iteration with static_pagerank's
 * arithmetic.
 *
 * Callers without a converged state for the current vertex space run
 * full_rerun first; on a graph that starts empty that is cheap, and every
 * later round is a delta round (tests/test_analytics.cc pins this path).
 *
 * Deletion-safe by construction: both endpoints of every changed edge
 * are in the dirty set, so a round refreshes the dirty vertices'
 * contributions for their new out-degrees and re-pulls every vertex
 * whose in-edges changed from the current topology.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_PAGERANK_H
#define IGS_ANALYTICS_INCREMENTAL_PAGERANK_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "analytics/compute_meter.h"
#include "analytics/incremental/state.h"
#include "analytics/pagerank.h"
#include "common/types.h"
#include "graph/dirty_set_view.h"
#include "graph/graph_store.h"

namespace igs::analytics::incremental {

/** Epoch-persistent PageRank (DESIGN.md §14). */
class PageRank {
  public:
    explicit PageRank(const PageRankParams& params = {}) : params_(params)
    {
    }

    const std::vector<double>& ranks() const { return state_.rank; }
    bool warm() const { return state_.warm; }
    const PageRankParams& params() const { return params_; }

    /**
     * Recompute every rank from scratch (pull-based Jacobi, the
     * static_pagerank iteration) into the memo state.  Used for cold
     * starts, vertex-space growth (the (1-d)/|V| base term shifts for
     * *every* vertex when |V| changes, so no delta is valid), and
     * epochs the policy sends to full rerun.  Drops any leftover delta
     * frontier: every rank is recomputed.
     */
    template <typename Graph>
        requires graph::GraphReadPath<Graph>
    ComputeStats
    full_rerun(const Graph& g, ComputeMeter* external_meter = nullptr)
    {
        ComputeMeter local;
        ComputeMeter* meter =
            external_meter != nullptr ? external_meter : &local;
        const ComputeStats before = meter->stats();
        const std::size_t n = g.num_vertices();
        const double init = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
        RankState& s = state_;
        s.rank.assign(n, init);
        s.contrib.resize(n);
        s.out_degree.resize(n);
        s.frontier.assign(words(n), 0);
        s.next_frontier.assign(words(n), 0);
        s.warm = true;
        if (n == 0) {
            return stats_delta(meter->stats(), before);
        }
        for (VertexId v = 0; v < n; ++v) {
            s.out_degree[v] = g.degree(v, Direction::kOut);
        }
        const double base = (1.0 - params_.damping) / static_cast<double>(n);
        for (std::uint32_t it = 0; it < params_.max_iterations; ++it) {
            meter->iteration();
            double error = 0.0;
            // Sums read only `contrib`, which holds this iteration's
            // input ranks, so each new rank can overwrite its old one.
            refresh_contributions(n);
            for (VertexId v = 0; v < n; ++v) {
                double sum = 0.0;
                for (const Neighbor& u : g.edges(v, Direction::kIn)) {
                    sum += s.contrib[u.id];
                }
                meter->activate();
                meter->traverse(g.degree(v, Direction::kIn));
                const double next = base + params_.damping * sum;
                error += std::abs(next - s.rank[v]);
                s.rank[v] = next;
            }
            if (error < params_.tolerance) {
                break;
            }
        }
        // The memo the delta round pulls: contributions of the final
        // ranks, not of the last iterate's input.
        refresh_contributions(n);
        return stats_delta(meter->stats(), before);
    }

    /**
     * One delta round: seed the frontier with the epoch's dirty set plus
     * its out-neighborhood (and any frontier a capped round left), then
     * sweep it in ascending id order, updating ranks and contributions in
     * place, until every residual falls below the per-vertex tolerance.
     * Falls back to full_rerun when cold or when the vertex space changed.
     */
    template <typename Graph>
    ComputeStats
    delta_propagate(const graph::DirtySetView<Graph>& view,
                    ComputeMeter* external_meter = nullptr)
    {
        const std::size_t n = view.num_vertices();
        if (!state_.warm || state_.rank.size() != n) {
            return full_rerun(view, external_meter);
        }
        ComputeMeter local;
        ComputeMeter* meter =
            external_meter != nullptr ? external_meter : &local;
        const ComputeStats before = meter->stats();
        if (n == 0) {
            return stats_delta(meter->stats(), before);
        }
        const double base = (1.0 - params_.damping) / static_cast<double>(n);
        RankState& s = state_;
        const std::size_t num_words = words(n);

        for (VertexId v : view.dirty()) {
            if (v >= n) {
                continue;
            }
            // The dirty vertex's out-degree may have changed: its memoized
            // contribution and every out-neighbor's pull input did too
            // (the seeding gap).
            const std::uint32_t out = view.degree(v, Direction::kOut);
            s.contrib[v] = contribution(s.rank[v], out);
            mark(s.frontier, v);
            for (const Neighbor& w : view.edges(v, Direction::kOut)) {
                mark(s.frontier, w.id);
            }
            meter->traverse(out);
        }
        std::uint64_t active = popcount(s.frontier);
        meter->seed(active);

        for (std::uint32_t it = 0; it < params_.max_iterations && active > 0;
             ++it) {
            meter->iteration();
            meter->activate(active);
            for (std::size_t i = 0; i < num_words; ++i) {
                std::uint64_t bits = s.frontier[i];
                s.frontier[i] = 0;
                while (bits != 0) {
                    const auto v = static_cast<VertexId>(
                        i * 64 + static_cast<std::size_t>(
                                     std::countr_zero(bits)));
                    bits &= bits - 1;
                    double sum = 0.0;
                    for (const Neighbor& u : view.edges(v, Direction::kIn)) {
                        sum += s.contrib[u.id];
                    }
                    meter->traverse(view.degree(v, Direction::kIn));
                    const double new_rank = base + params_.damping * sum;
                    const bool changed =
                        std::abs(new_rank - s.rank[v]) > params_.tolerance;
                    const std::uint32_t out = view.degree(v, Direction::kOut);
                    s.rank[v] = new_rank;
                    s.contrib[v] = contribution(new_rank, out);
                    if (changed) {
                        for (const Neighbor& w :
                             view.edges(v, Direction::kOut)) {
                            mark(s.next_frontier, w.id);
                        }
                        meter->traverse(out);
                    }
                }
            }
            s.frontier.swap(s.next_frontier);
            active = popcount(s.frontier);
        }
        // A round stopped by the iteration cap leaves its frontier set:
        // the next delta round resumes it.
        return stats_delta(meter->stats(), before);
    }

  private:
    static std::size_t words(std::size_t n) { return (n + 63) / 64; }

    static void
    mark(std::vector<std::uint64_t>& bitmap, VertexId v)
    {
        bitmap[v >> 6] |= std::uint64_t{1} << (v & 63);
    }

    static std::uint64_t
    popcount(const std::vector<std::uint64_t>& bitmap)
    {
        std::uint64_t total = 0;
        for (const std::uint64_t word : bitmap) {
            total += static_cast<std::uint64_t>(std::popcount(word));
        }
        return total;
    }

    static double
    contribution(double rank, std::uint32_t out_degree)
    {
        return out_degree > 0 ? rank / static_cast<double>(out_degree) : 0.0;
    }

    /** contrib := rank / out_degree over the first `n` vertices. */
    void
    refresh_contributions(std::size_t n)
    {
        for (VertexId v = 0; v < n; ++v) {
            state_.contrib[v] =
                contribution(state_.rank[v], state_.out_degree[v]);
        }
    }

    PageRankParams params_;
    RankState state_;
};

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_PAGERANK_H
