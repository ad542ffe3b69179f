/**
 * @file
 * Host wall-clock split of the compute round, per kernel and per round
 * kind (full rerun vs delta).
 *
 * Replays perfbench's `churn-epochs` and `wiki-epochs` inputs (seed 1,
 * with the streams, engine settings and analytics settings of
 * perfbench/harness/workloads.h, PageRank at tolerance 1e-12 and 250
 * iterations) through AnyRealTimeEngine on a 1-thread pool.  Each
 * published epoch runs three IncrementalAnalytics bundles, one per kernel
 * (PageRank, SSSP, BFS), each timed on its own and split by the full-vs-
 * delta decision its on_epoch returns.
 *
 * Method: one untimed warm-up pass, then `reps` timed passes, each on a
 * fresh engine; churn's build-up prefix is loaded before timing starts.
 * Per workload, kernel and round kind it reports the median and quartiles
 * of the per-epoch wall ms over all timed passes, the epochs of one pass,
 * and their mean iterations, activations and traversals per epoch (the
 * counts are deterministic).  One JSON line per row goes to stdout and to
 * BENCH_analytics.json in the working directory.  IGS_BENCH_SCALE scales
 * the measured batches and the passes.  Wall-clock only: the numbers
 * depend on the host and its load.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analytics/incremental/analytics.h"
#include "bench_support.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "gen/datasets.h"
#include "gen/deletion_stress.h"
#include "graph/snapshot_view.h"
#include "stream/pending.h"

namespace {

using namespace igs;
using analytics::ComputeStats;
using analytics::incremental::IncrementalAnalytics;
using analytics::incremental::IncrementalConfig;
using Clock = std::chrono::steady_clock;

/**
 * One of perfbench's analytics workloads.  perfbench is a frozen tree
 * the bench does not include from; these rows copy its workload table,
 * churn model and analytics settings (perfbench/harness/workloads.h).
 */
struct Workload {
    const char* name;
    bool churn;
    std::size_t batch_size;
    std::size_t batches;
    core::GraphBackend backend;
    unsigned depth;
    bool oca;
};

constexpr Workload kWorkloads[] = {
    {"churn-epochs", true, 1u << 9, 100, core::GraphBackend::kAdjacencyList,
     1, false},
    {"wiki-epochs", false, 10000, 20, core::GraphBackend::kHybrid, 2, true},
};

/** A workload's seeded stream: churn's build-up prefix, then the batches. */
struct Inputs {
    std::size_t num_vertices = 0;
    std::vector<stream::EdgeBatch> prefix;
    std::vector<stream::EdgeBatch> batches;
};

Inputs
make_inputs(const Workload& w, std::size_t batches, std::uint64_t seed)
{
    Inputs in;
    std::uint64_t id = 1;
    auto fill = [&](auto& generator) {
        for (std::size_t i = 0; i < batches; ++i) {
            in.batches.emplace_back(id++, generator.take(w.batch_size));
        }
    };
    if (w.churn) {
        gen::DeletionStressModel m;
        m.num_vertices = 1u << 13;
        m.build_edges = 1u << 15;
        m.burst = 1u << 9;
        m.seed = seed;
        gen::DeletionStressGenerator generator(m);
        in.num_vertices = m.num_vertices;
        in.prefix.emplace_back(id++, generator.take(m.build_edges));
        fill(generator);
    } else {
        const gen::DatasetSpec& ds = gen::find_dataset("wiki");
        auto generator = ds.make_generator(seed);
        in.num_vertices = ds.model.num_vertices;
        fill(generator);
    }
    return in;
}

core::EngineConfig
engine_config(const Workload& w)
{
    core::EngineConfig c;
    c.policy = core::UpdatePolicy::kAbrUscHau;
    c.graph_backend = w.backend;
    c.pipeline_depth = w.depth;
    c.oca.enabled = w.oca;
    c.renumber.enabled = false;
    return c;
}

IncrementalConfig
analytics_config(const core::EngineConfig& engine)
{
    IncrementalConfig c;
    c.policy = engine.incremental;
    c.pagerank.tolerance = 1e-12;
    c.pagerank.max_iterations = 250;
    return c;
}

constexpr const char* kKernels[] = {"pagerank", "sssp", "bfs"};
constexpr std::size_t kNumKernels = 3;

/** One kernel's rounds of one kind. */
struct Split {
    /** Per-epoch wall ms over every timed pass. */
    std::vector<double> ms;
    /** Counts of one pass. */
    std::uint64_t epochs = 0;
    ComputeStats work;
};

/** Per kernel, [0] = full rounds, [1] = delta rounds. */
using Splits = std::array<std::array<Split, 2>, kNumKernels>;

/**
 * The incremental bundle split by kernel: one IncrementalAnalytics per
 * kernel, each running only that kernel, so each kernel is timed on its
 * own behind the bundle's own full-vs-delta decision.
 */
class TimedKernels {
  public:
    TimedKernels(const IncrementalConfig& cfg, Splits& splits)
        : bundles_{IncrementalAnalytics(only(cfg, 0)),
                   IncrementalAnalytics(only(cfg, 1)),
                   IncrementalAnalytics(only(cfg, 2))},
          splits_(&splits)
    {
    }

    /** Record rounds from now on (the prefix epoch is not measured). */
    void
    start_recording(bool count)
    {
        recording_ = true;
        counting_ = count;
    }

    const analytics::incremental::PageRank& pagerank() const
    {
        return bundles_[0].pagerank();
    }

    void
    on_epoch(const graph::SnapshotView& snap, const stream::PendingWork& work)
    {
        for (std::size_t k = 0; k < kNumKernels; ++k) {
            const Clock::time_point t0 = Clock::now();
            const auto decision = bundles_[k].on_epoch(snap, work);
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
            if (!recording_) {
                continue;
            }
            Split& s = (*splits_)[k][decision.delta ? 1 : 0];
            s.ms.push_back(ms);
            if (counting_) {
                ++s.epochs;
                s.work += decision.work;
            }
        }
    }

  private:
    /** `cfg` with only kernel `k` (kKernels order) enabled. */
    static IncrementalConfig
    only(IncrementalConfig cfg, std::size_t k)
    {
        cfg.run_pagerank = k == 0;
        cfg.run_sssp = k == 1;
        cfg.run_bfs = k == 2;
        return cfg;
    }

    std::array<IncrementalAnalytics, kNumKernels> bundles_;
    Splits* splits_;
    bool recording_ = false;
    bool counting_ = false;
};

/**
 * One pass on a fresh engine and 1-thread pool.  Returns the largest
 * |rank - from-scratch rank| on the final snapshot.
 */
double
run_pass(const Workload& w, const Inputs& in, Splits& splits, bool record,
         bool count)
{
    const core::EngineConfig cfg = engine_config(w);
    ThreadPool pool(1);
    core::AnyRealTimeEngine engine(cfg, in.num_vertices, pool);
    const auto acfg = analytics_config(cfg);
    TimedKernels kernels(acfg, splits);
    engine.set_compute([&kernels](const graph::SnapshotView& snap,
                                  const stream::PendingWork& work) {
        kernels.on_epoch(snap, work);
    });
    for (const stream::EdgeBatch& batch : in.prefix) {
        (void)engine.ingest(batch);
    }
    engine.flush_pipeline();
    if (record) {
        kernels.start_recording(count);
    }
    for (const stream::EdgeBatch& batch : in.batches) {
        (void)engine.ingest(batch);
    }
    engine.flush_pipeline();

    const graph::SnapshotView snap = engine.snapshot();
    analytics::incremental::PageRank fresh(acfg.pagerank);
    fresh.full_rerun(snap);
    double worst = 0.0;
    for (std::size_t v = 0; v < fresh.ranks().size(); ++v) {
        worst = std::max(worst, std::abs(kernels.pagerank().ranks()[v] -
                                         fresh.ranks()[v]));
    }
    return worst;
}

/** Nearest-rank quantile of `v` (sorted in place). */
double
quantile(std::vector<double>& v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
}

} // namespace

int
main(int argc, char** argv)
{
    bench::JsonSink json_sink("analytics_wall", argc, argv);
    std::printf("== compute round wall-clock, per kernel, full vs delta ==\n");
    std::printf("host wall-clock; perfbench inputs, seed 1, 1-thread pool\n\n");
    std::FILE* json = std::fopen("BENCH_analytics.json", "w");
    const double scale = bench::bench_scale();
    const auto reps = static_cast<std::size_t>(
        std::max(1.0, std::round(3.0 * std::min(scale, 1.0))));
    int status = 0;

    for (const Workload& w : kWorkloads) {
        const char* name = w.name;
        const std::size_t batches = std::max<std::size_t>(
            2, static_cast<std::size_t>(static_cast<double>(w.batches) *
                                        std::min(scale, 1.0)));
        const Inputs in = make_inputs(w, batches, 1);
        Splits splits;
        double worst = run_pass(w, in, splits, false, false); // warm-up
        for (std::size_t r = 0; r < reps; ++r) {
            worst = std::max(worst, run_pass(w, in, splits, true, r == 0));
        }
        const bool correct = worst <= 1e-8;
        status |= correct ? 0 : 1;
        std::printf("%s: %zu batches x %zu passes, PageRank max |error| "
                    "vs rerun %.2e (%s)\n",
                    name, batches, reps, worst,
                    correct ? "ok" : "FAILED");
        std::printf("  %-9s %-5s %6s %8s %8s %8s %8s %11s %11s\n",
                    "kernel", "kind", "epochs", "p25 ms", "p50 ms", "p75 ms",
                    "iters/ep", "activ./ep", "travers./ep");
        for (std::size_t k = 0; k < kNumKernels; ++k) {
            for (std::size_t kind = 0; kind < 2; ++kind) {
                Split& s = splits[k][kind];
                const double q1 = quantile(s.ms, 0.25);
                const double q2 = quantile(s.ms, 0.5);
                const double q3 = quantile(s.ms, 0.75);
                const double epochs =
                    static_cast<double>(std::max<std::uint64_t>(s.epochs, 1));
                const double iterations =
                    static_cast<double>(s.work.iterations) / epochs;
                const double activations =
                    static_cast<double>(s.work.activations) / epochs;
                const double traversals =
                    static_cast<double>(s.work.traversals) / epochs;
                const char* kind_name = kind == 0 ? "full" : "delta";
                std::printf("  %-9s %-5s %6llu %8.3f %8.3f %8.3f %8.1f "
                            "%11.0f %11.0f\n",
                            kKernels[k], kind_name,
                            static_cast<unsigned long long>(s.epochs), q1, q2,
                            q3, iterations, activations, traversals);
                if (json == nullptr) {
                    continue;
                }
                std::fprintf(
                    json,
                    "{\"bench\": \"analytics_wall\", \"workload\": \"%s\", "
                    "\"kernel\": \"%s\", \"kind\": \"%s\", \"threads\": 1, "
                    "\"seed\": 1, \"batches\": %zu, \"passes\": %zu, "
                    "\"epochs\": %llu, \"wall_ms_p25\": %.4f, "
                    "\"wall_ms_p50\": %.4f, \"wall_ms_p75\": %.4f, "
                    "\"iterations_per_epoch\": %.2f, "
                    "\"activations_per_epoch\": %.1f, "
                    "\"traversals_per_epoch\": %.1f, \"correct\": %s}\n",
                    name, kKernels[k], kind_name, batches, reps,
                    static_cast<unsigned long long>(s.epochs), q1, q2, q3,
                    iterations, activations, traversals,
                    correct ? "true" : "false");
            }
        }
        std::printf("\n");
    }
    if (json != nullptr) {
        std::fclose(json);
        std::printf("wrote BENCH_analytics.json\n");
    }
    return status;
}
