/**
 * @file
 * Wall-clock benchmark of the real engine (core::AnyRealTimeEngine).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Load model: a closed loop with one caller.  Batches are generated from
 * the seed before any timing starts; each pass then builds a fresh engine
 * (set-up), streams every batch through `ingest` — draining
 * `take_pending_work` whenever `compute_due` is true on ingest-only
 * workloads — and ends with `flush_pipeline`.  The first pass is checked
 * and not timed; timed passes repeat until `--seconds` have elapsed and
 * the percentiles have enough samples.
 *
 * `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
 * untraced passes with traced ones (traced_engine.h), then replays the
 * update phase on a 1-thread pool and through sim::SimEngine, and prints
 * the per-layer metrics.  Both modes run the correctness gate
 * (checker.h) and exit non-zero on a mismatch.  The last line of
 * standard output is one JSON object: correct, attempted, failed,
 * metrics.  README.md documents the method and every metric.
 */
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analytics/incremental/analytics.h"
#include "checker.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "sim/sim_engine.h"
#include "stats.h"
#include "traced_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using igs::analytics::incremental::EpochDecision;
using igs::analytics::incremental::IncrementalAnalytics;
using igs::core::AnyRealTimeEngine;
using igs::core::BatchReport;
using igs::core::GraphBackend;

/** Hard stop for repeating passes: the run must end well within the
 *  harness's 180 s limit even on a slow host. */
constexpr double kPassBudgetSeconds = 100.0;
/** Set-up is repeated at least this often so setup_s is a median. */
constexpr std::size_t kMinSetupSamples = 7;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 5.0;
    bool trace = false;
};

std::optional<Args>
parse_args(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            return std::nullopt;
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = value == "1";
            if (value != "0" && value != "1") {
                return std::nullopt;
            }
        } else {
            return std::nullopt;
        }
        if (end != nullptr && *end != '\0') {
            return std::nullopt;
        }
    }
    if (!have_workload || !(a.seconds > 0.0)) {
        return std::nullopt;
    }
    return a;
}

double
ms(Clock::time_point a, Clock::time_point b)
{
    return seconds_between(a, b) * 1e3;
}

/**
 * The process's resident set (`VmRSS`) or its peak (`VmHWM`), in MiB, from
 * the kernel's status of this process.  getrusage's ru_maxrss is no
 * substitute: Linux carries it across exec, so it starts at the launching
 * process's peak.
 */
double
status_mb(const char* field)
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
        throw std::runtime_error("cannot read /proc/self/status");
    }
    char line[256];
    double kb = -1.0;
    const std::size_t len = std::strlen(field);
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
            kb = std::strtod(line + len + 1, nullptr);
            break;
        }
    }
    std::fclose(f);
    if (kb < 0.0) {
        throw std::runtime_error(std::string("no ") + field +
                                 " in /proc/self/status");
    }
    return kb / 1024.0;
}

/** Worker pool size, counting the caller: half the cores.  A fork/join
 *  batch waits for its slowest worker, so on a shared host every core
 *  the pool spans adds another tenant's noise to each batch; the other
 *  half is left to the depth-2 compute thread and the rest of the host
 *  (README.md, "Load model"). */
std::size_t
pool_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw / 2 : 1;
}

// --------------------------------------------------------------------------
// Compute rounds and the stream loop shared by every pass.
// --------------------------------------------------------------------------

/** Written by the compute callback, indexed by epoch - 1; sized up front
 *  so the depth-2 compute thread never reallocates it.  The engine joins
 *  that thread before the caller reads an entry. */
struct EpochLog {
    explicit EpochLog(std::size_t epochs)
        : end(epochs), busy_s(epochs, 0.0), decision(epochs)
    {
    }
    std::vector<Clock::time_point> end;
    std::vector<double> busy_s;
    std::vector<EpochDecision> decision;
};

/** The benchmark's compute round: IncrementalAnalytics::on_epoch, as
 *  analytics::incremental::attach registers it, plus an end stamp. */
igs::core::ComputeFn
timed_analytics(IncrementalAnalytics& analytics, EpochLog& log)
{
    return [&analytics, &log](const igs::graph::SnapshotView& snap,
                              const igs::stream::PendingWork& work) {
        const Clock::time_point t0 = Clock::now();
        const EpochDecision d = analytics.on_epoch(snap, work);
        const Clock::time_point t1 = Clock::now();
        const std::size_t i = work.epoch - 1;
        if (i < log.end.size()) {
            log.end[i] = t1;
            log.busy_s[i] = seconds_between(t0, t1);
            log.decision[i] = d;
        }
    };
}

struct StreamResult {
    double wall_s = 0.0;
    std::vector<double> batch_ms;
    std::vector<double> epoch_ms;
    std::vector<BatchReport> reports;
    std::uint64_t failed = 0;
    /** Epochs closed by the measured stream. */
    std::size_t epochs = 0;
};

/**
 * Stream the measured batches through `engine` (AnyRealTimeEngine or
 * TracedEngine).  With `log` the engine runs compute rounds itself and
 * an epoch ends when the callback stamps it; without, the caller drains
 * the pending work whenever a round is due and that drain ends the
 * epoch.  Epoch latency runs from the start of the ingest of the last
 * batch folded into the epoch.
 */
template <typename Engine>
StreamResult
run_stream(Engine& engine, const Inputs& in, const EpochLog* log,
           igs::EpochId first_epoch)
{
    StreamResult r;
    r.batch_ms.reserve(in.batches.size());
    r.reports.reserve(in.batches.size());
    std::vector<Clock::time_point> closes;
    closes.reserve(in.batches.size() + 1);
    const Clock::time_point start = Clock::now();
    Clock::time_point last_start = start;
    bool tail_pending = false;
    for (const igs::stream::EdgeBatch& batch : in.batches) {
        const Clock::time_point t0 = Clock::now();
        last_start = t0;
        BatchReport report;
        try {
            report = engine.ingest(batch);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "batch %" PRIu64 " failed: %s\n", batch.id,
                         e.what());
            ++r.failed;
            continue;
        }
        const Clock::time_point t1 = Clock::now();
        r.batch_ms.push_back(ms(t0, t1));
        r.reports.push_back(report);
        tail_pending = !engine.compute_due();
        if (engine.compute_due()) {
            if (log != nullptr) {
                closes.push_back(t0);
            } else {
                (void)engine.take_pending_work();
                r.epoch_ms.push_back(ms(t0, Clock::now()));
            }
        }
    }
    engine.flush_pipeline();
    r.wall_s = seconds_between(start, Clock::now());
    if (log != nullptr) {
        if (tail_pending) {
            closes.push_back(last_start); // flush published the tail
        }
        r.epochs = closes.size();
        for (std::size_t k = 0; k < closes.size(); ++k) {
            const std::size_t i = first_epoch - 1 + k;
            r.epoch_ms.push_back(ms(closes[k], log->end.at(i)));
        }
    } else {
        r.epochs = r.epoch_ms.size();
    }
    return r;
}

// --------------------------------------------------------------------------
// Passes.
// --------------------------------------------------------------------------

/** Everything one untraced pass measured. */
struct Pass {
    double setup_s = 0.0;
    StreamResult stream;
    igs::core::PipelineStats pipeline;
    std::uint64_t renumbers = 0;
    std::uint64_t digest = 0;
    /** Compute-callback busy seconds over the measured epochs. */
    double compute_busy_s = 0.0;
};

/** Set-up's last step: load the build-up prefix (churn), draining its
 *  pending work when no compute round is attached. */
template <typename Engine>
void
load_prefix(Engine& engine, const Inputs& in, bool compute)
{
    if (!in.prefix) {
        return;
    }
    (void)engine.ingest(*in.prefix);
    if (!compute && engine.compute_due()) {
        (void)engine.take_pending_work();
    }
    engine.flush_pipeline();
}

/** Apply `fn` to the live graph of whichever backend `engine` runs. */
template <typename Fn>
auto
on_live_graph(AnyRealTimeEngine& engine, Fn&& fn)
{
    return engine.backend() == GraphBackend::kHybrid
               ? fn(engine.engine<igs::graph::HybridStore>().graph())
               : fn(engine.engine<igs::graph::AdjacencyList>().graph());
}

/** Checks run on a pass's engine after its stream (empty = correct). */
using Inspect = std::function<std::string(AnyRealTimeEngine&,
                                          const IncrementalAnalytics*)>;

/**
 * One untraced pass: set-up (pool, engine, attach, churn prefix) is
 * timed on its own; with `setup_only` the pass ends there.
 */
Pass
untraced_pass(const Workload& w, const Inputs& in, bool setup_only,
              const Inspect& inspect, std::string* error)
{
    Pass p;
    const igs::core::EngineConfig cfg = engine_config(w);
    EpochLog log(in.batches.size() + 2);
    // Hand the previous pass's freed memory back to the kernel, so every
    // pass starts from the memory state of a freshly started service.
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    igs::ThreadPool pool(pool_threads());
    std::optional<IncrementalAnalytics> analytics;
    AnyRealTimeEngine engine(cfg, in.num_vertices, pool);
    if (w.analytics) {
        analytics.emplace(analytics_config(cfg));
        engine.set_compute(timed_analytics(*analytics, log));
    }
    load_prefix(engine, in, w.analytics);
    p.setup_s = seconds_between(t0, Clock::now());
    if (setup_only) {
        return p;
    }
    const igs::EpochId first =
        engine.pipeline_stats().epochs_published + 1;
    p.stream = run_stream(engine, in, w.analytics ? &log : nullptr, first);
    p.pipeline = engine.pipeline_stats();
    p.renumbers = engine.renumber_stats().renumbers;
    for (std::size_t k = 0; k < p.stream.epochs && w.analytics; ++k) {
        p.compute_busy_s += log.busy_s.at(first - 1 + k);
    }
    p.digest = on_live_graph(engine,
                             [](const auto& g) { return graph_digest(g); });
    if (inspect) {
        *error = inspect(engine, analytics ? &*analytics : nullptr);
    }
    return p;
}

/** Correctness gate on an untraced engine: live graph, final snapshot
 *  and analytics. */
std::string
check_engine(AnyRealTimeEngine& engine, const IncrementalAnalytics* analytics,
             const std::vector<FlatEdge>& reference)
{
    std::string err = on_live_graph(engine, [&](const auto& g) {
        return check_graph(reference, g, "live graph");
    });
    if (err.empty() && analytics != nullptr) {
        const igs::graph::SnapshotView snap = engine.snapshot();
        err = check_graph(reference, snap, "final snapshot");
        if (err.empty()) {
            err = check_analytics(*analytics, snap);
        }
    }
    return err;
}

/** Everything one traced pass measured. */
struct TracedPass {
    StreamResult stream;
    LayerTimes times;
    std::uint64_t renumbers = 0;
    std::uint64_t digest = 0;
    std::vector<double> epoch_busy_ms;
    std::vector<EpochDecision> decisions;
    igs::graph::HybridStore::TierCensus census;
};

/**
 * One traced pass on `threads` workers.  `with_compute` false replays the
 * update phase only (the caller drains pending work, as on ingest-only
 * workloads).  The final graph is checked against `reference` when given.
 */
template <typename GraphT>
TracedPass
traced_pass(const Workload& w, const Inputs& in, std::size_t threads,
            bool with_compute, const std::vector<FlatEdge>* reference,
            std::string* error)
{
    TracedPass p;
    const igs::core::EngineConfig cfg = engine_config(w);
    const bool compute = w.analytics && with_compute;
    EpochLog log(in.batches.size() + 2);
    malloc_trim(0);
    igs::ThreadPool pool(threads);
    std::optional<IncrementalAnalytics> analytics;
    TracedEngine<GraphT> engine(cfg, in.num_vertices, pool, p.times);
    if (compute) {
        analytics.emplace(analytics_config(cfg));
        engine.set_compute(timed_analytics(*analytics, log));
    }
    load_prefix(engine, in, compute);
    const igs::EpochId first = p.times.epochs + 1;
    p.times = LayerTimes{};
    p.stream = run_stream(engine, in, compute ? &log : nullptr, first);
    p.renumbers = engine.renumbers();
    p.digest = graph_digest(engine.graph());
    for (std::size_t k = 0; k < p.stream.epochs && compute; ++k) {
        p.epoch_busy_ms.push_back(log.busy_s.at(first - 1 + k) * 1e3);
        p.decisions.push_back(log.decision.at(first - 1 + k));
    }
    if constexpr (requires { engine.graph().tier_census(); }) {
        p.census = engine.graph().tier_census();
    }
    if (reference != nullptr) {
        *error = check_graph(*reference, engine.graph(), "traced live graph");
        if (error->empty() && compute) {
            *error = check_analytics(*analytics, engine.snapshot());
        }
    }
    return p;
}

TracedPass
traced_pass_any(const Workload& w, const Inputs& in, std::size_t threads,
                bool with_compute, const std::vector<FlatEdge>* reference,
                std::string* error)
{
    return w.backend == GraphBackend::kHybrid
               ? traced_pass<igs::graph::HybridStore>(w, in, threads,
                                                      with_compute, reference,
                                                      error)
               : traced_pass<igs::graph::AdjacencyList>(
                     w, in, threads, with_compute, reference, error);
}

/** Modeled update cycles of the same batches (sim::SimEngine, Table-1
 *  machine), split by the update path the model took. */
struct SimReplay {
    double cycles[3] = {0.0, 0.0, 0.0};
    std::uint64_t edges[3] = {0, 0, 0};
    std::vector<BatchReport> reports;

    double
    total_cycles() const
    {
        return cycles[0] + cycles[1] + cycles[2];
    }
};

SimReplay
sim_replay(const Workload& w, const Inputs& in)
{
    SimReplay s;
    igs::core::EngineConfig cfg = engine_config(w);
    // HAU is hardware: the real host runs ABR+USC, so the model does too.
    cfg.policy = igs::core::UpdatePolicy::kAbrUsc;
    igs::ThreadPool pool(pool_threads());
    igs::sim::SimEngine engine(cfg, igs::sim::MachineParams{},
                               igs::sim::SwCostParams{},
                               igs::sim::HauCostParams{}, in.num_vertices,
                               pool);
    if (in.prefix) {
        (void)engine.ingest(*in.prefix);
        (void)engine.take_pending_work();
    }
    for (const igs::stream::EdgeBatch& batch : in.batches) {
        const BatchReport r = engine.ingest(batch);
        const auto path = static_cast<std::size_t>(path_of(r));
        s.cycles[path] += static_cast<double>(r.update.cycles);
        s.edges[path] += batch.size();
        s.reports.push_back(r);
        if (engine.compute_due()) {
            (void)engine.take_pending_work();
        }
    }
    return s;
}

// --------------------------------------------------------------------------
// Reporting.
// --------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

void
print_metrics(const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics) {
        std::printf("  %-40s %16.6g %-12s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
}

void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric>& metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// --------------------------------------------------------------------------
// The two modes.
// --------------------------------------------------------------------------

struct Context {
    Args args;
    const Workload* workload = nullptr;
    Inputs inputs;
    /** Resident memory once the inputs exist. */
    double rss_base_mb = 0.0;

    /** The stream's reference graph, built on first use: after the first
     *  pass has read its peak memory, so the reference never counts as
     *  engine memory. */
    const std::vector<FlatEdge>&
    reference()
    {
        if (!reference_built_) {
            ReferenceGraph ref;
            if (inputs.prefix) {
                ref.apply_batch(inputs.prefix->edges());
            }
            for (const igs::stream::EdgeBatch& b : inputs.batches) {
                ref.apply_batch(b.edges());
            }
            reference_ = ref.sorted_edges();
            reference_built_ = true;
        }
        return reference_;
    }

  private:
    std::vector<FlatEdge> reference_;
    bool reference_built_ = false;
};

/** Do the samples support every reported percentile? */
bool
enough_samples(const std::vector<double>& batch_ms,
               const std::vector<double>& epoch_ms)
{
    return percentile(batch_ms, 0.95).has_value() &&
           percentile(epoch_ms, 0.95).has_value();
}

std::string
latency_note(const std::vector<double>& samples, std::size_t passes,
             const std::string& extra = "")
{
    return "n=" + std::to_string(samples.size()) + " over " +
           std::to_string(passes) + " passes" + extra;
}

int
run_untraced(Context& ctx)
{
    const Workload& w = *ctx.workload;
    std::vector<double> setups, throughput, batch_ms, epoch_ms;
    double stream_wall_s = 0.0;
    std::uint64_t attempted = 0, failed = 0;
    double rss_mb = 0.0;
    std::string error;
    // The checked pass doubles as the warm-up (first touch of the heap,
    // lazy set-up in the libraries) and is left out of every timing.
    const Pass checked = untraced_pass(
        w, ctx.inputs, false,
        [&](AnyRealTimeEngine& e, const IncrementalAnalytics* a) {
            rss_mb = status_mb("VmHWM") - ctx.rss_base_mb;
            return check_engine(e, a, ctx.reference());
        },
        &error);
    attempted += ctx.inputs.batches.size();
    failed += checked.stream.failed;
    std::size_t passes = 0;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&] { return seconds_between(start, Clock::now()); };
    while (passes == 0 ||
           ((elapsed() < ctx.args.seconds ||
             !enough_samples(batch_ms, epoch_ms)) &&
            elapsed() < kPassBudgetSeconds)) {
        std::string pass_error;
        const Pass p = untraced_pass(w, ctx.inputs, false, nullptr,
                                     &pass_error);
        if (p.digest != checked.digest && pass_error.empty()) {
            pass_error = "timed pass " + std::to_string(passes + 1) +
                         " ended with a different graph than the checked pass";
        }
        if (!pass_error.empty() && error.empty()) {
            error = pass_error;
        }
        ++passes;
        setups.push_back(p.setup_s);
        throughput.push_back(static_cast<double>(ctx.inputs.ops) /
                             p.stream.wall_s);
        stream_wall_s += p.stream.wall_s;
        batch_ms.insert(batch_ms.end(), p.stream.batch_ms.begin(),
                        p.stream.batch_ms.end());
        epoch_ms.insert(epoch_ms.end(), p.stream.epoch_ms.begin(),
                        p.stream.epoch_ms.end());
        attempted += ctx.inputs.batches.size();
        failed += p.stream.failed;
    }
    while (setups.size() < kMinSetupSamples) {
        std::string unused;
        setups.push_back(
            untraced_pass(w, ctx.inputs, true, nullptr, &unused).setup_s);
    }

    if (!enough_samples(batch_ms, epoch_ms)) {
        std::fprintf(stderr,
                     "perfbench: only %zu batch and %zu epoch samples in "
                     "%.0f s; p95 needs %zu\n",
                     batch_ms.size(), epoch_ms.size(), kPassBudgetSeconds,
                     min_samples_for(0.95));
        return 1;
    }
    std::printf("passes: %zu timed after 1 checked warm-up (fresh engine "
                "each), %.2f s measured\n",
                passes, elapsed());
    if (throughput.size() >= 2) {
        const Quartiles q = quartiles(throughput);
        std::printf("ingest_edges_per_s over passes: q1 %.6g, median %.6g, "
                    "q3 %.6g\n",
                    q.q1, q.q2, q.q3);
    }
    const std::string epoch_note =
        w.analytics ? "compute round ends" : "caller drain ends";
    // Read over the whole run: a percentile of every sample of every pass,
    // and all streamed operations over all stream wall time.  On a shared
    // host the noise drifts over seconds to minutes and shifts all passes
    // alike, so the quietest few passes would carry it too, plus the noise
    // of a small order statistic (README.md, "Spread and bounds").
    const std::vector<Metric> metrics{
        {"ingest_edges_per_s",
         static_cast<double>(ctx.inputs.ops * passes) / stream_wall_s, "1/s",
         std::to_string(passes) + " passes, pass median " +
             std::to_string(median(throughput))},
        {"batch_latency_p50_ms", *percentile(batch_ms, 0.50), "ms",
         latency_note(batch_ms, passes)},
        {"epoch_latency_p50_ms", *percentile(epoch_ms, 0.50), "ms",
         latency_note(epoch_ms, passes, ", " + epoch_note)},
        {"setup_s", median(setups), "s",
         "median of " + std::to_string(setups.size()) + " set-ups"},
        {"engine_rss_mb", rss_mb, "MiB",
         "peak minus resident after input generation"},
    };
    print_metrics(metrics);
    // Printed but left out of the JSON result: on a shared host their
    // run-to-run spread is wider than any bound the gate allows
    // (README.md, "Spread and bounds").
    print_metrics({
        {"batch_latency_p95_ms", *percentile(batch_ms, 0.95), "ms",
         latency_note(batch_ms, passes)},
        {"epoch_latency_p95_ms", *percentile(epoch_ms, 0.95), "ms",
         latency_note(epoch_ms, passes, ", " + epoch_note)},
        {"failed_batch_fraction",
         ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "share", "n=" + std::to_string(attempted) + " batches"},
    });
    if (!error.empty()) {
        std::printf("CORRECTNESS MISMATCH: %s\n", error.c_str());
    } else {
        std::printf("correctness: final graph equals the reference%s\n",
                    w.analytics ? "; analytics equal a from-scratch rerun"
                                : "");
    }
    print_result(error.empty(), attempted, failed, metrics);
    return error.empty() ? 0 : 1;
}

/** First per-batch decision difference between two runs, or empty. */
std::string
diff_decisions(const std::vector<BatchReport>& want,
               const std::vector<BatchReport>& got, const char* what)
{
    if (want.size() != got.size()) {
        return std::string(what) + ": batch count differs";
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i].reordered != got[i].reordered ||
            want[i].used_usc != got[i].used_usc ||
            want[i].defer_compute != got[i].defer_compute) {
            return std::string(what) + ": decisions differ at batch " +
                   std::to_string(want[i].batch_id);
        }
    }
    return {};
}

int
run_traced(Context& ctx)
{
    const Workload& w = *ctx.workload;
    const std::size_t threads = pool_threads();
    std::vector<double> untraced_wall, traced_wall;
    std::vector<double> epoch_busy_ms;
    std::vector<EpochDecision> decisions;
    LayerTimes sum;
    std::vector<BatchReport> reports;
    igs::core::PipelineStats pipeline;
    double compute_busy = 0.0, untraced_total = 0.0, traced_total = 0.0;
    std::uint64_t attempted = 0, failed = 0;
    igs::graph::HybridStore::TierCensus census;
    std::string error;
    std::size_t pairs = 0;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&] { return seconds_between(start, Clock::now()); };
    while (pairs == 0 ||
           (elapsed() < ctx.args.seconds && elapsed() < kPassBudgetSeconds)) {
        std::string e1, e2;
        Inspect inspect;
        if (pairs == 0) {
            inspect = [&](AnyRealTimeEngine& e, const IncrementalAnalytics* a) {
                return check_engine(e, a, ctx.reference());
            };
        }
        // Alternate which side runs first, so neither always inherits
        // the other's warm allocator and caches.
        Pass u;
        TracedPass t;
        auto run_untraced_side = [&] {
            u = untraced_pass(w, ctx.inputs, false, inspect, &e1);
        };
        auto run_traced_side = [&] {
            t = traced_pass_any(w, ctx.inputs, threads, true,
                                pairs == 0 ? &ctx.reference() : nullptr, &e2);
        };
        if (pairs % 2 == 0) {
            run_untraced_side();
            run_traced_side();
        } else {
            run_traced_side();
            run_untraced_side();
        }
        std::string e3 = diff_decisions(u.stream.reports, t.stream.reports,
                                        "traced run");
        if (e3.empty() && t.digest != u.digest) {
            e3 = "traced run: final graph differs from the untraced run";
        }
        if (e3.empty() && t.renumbers != u.renumbers) {
            e3 = "traced run: renumber passes differ from the untraced run";
        }
        for (const std::string* e : {&e1, &e2, &e3}) {
            if (!e->empty() && error.empty()) {
                error = *e;
            }
        }
        ++pairs;
        untraced_wall.push_back(u.stream.wall_s);
        traced_wall.push_back(t.stream.wall_s);
        untraced_total += u.stream.wall_s;
        traced_total += t.stream.wall_s;
        pipeline.backpressure_stalls += u.pipeline.backpressure_stalls;
        pipeline.stall_seconds += u.pipeline.stall_seconds;
        compute_busy += u.compute_busy_s;
        sum += t.times;
        epoch_busy_ms.insert(epoch_busy_ms.end(), t.epoch_busy_ms.begin(),
                             t.epoch_busy_ms.end());
        decisions.insert(decisions.end(), t.decisions.begin(),
                         t.decisions.end());
        if (pairs == 1) {
            reports = u.stream.reports;
        }
        census = t.census;
        attempted += 2 * ctx.inputs.batches.size();
        failed += u.stream.failed + t.stream.failed;
    }
    // Single-thread and modeled columns, on the same batches.
    std::string unused;
    const TracedPass single =
        traced_pass_any(w, ctx.inputs, 1, false, nullptr, &unused);
    const SimReplay sim = sim_replay(w, ctx.inputs);
    if (error.empty()) {
        error = diff_decisions(reports, single.stream.reports,
                               "1-thread replay");
    }

    const double n_pairs = static_cast<double>(pairs);
    const double ops = static_cast<double>(ctx.inputs.ops) * n_pairs;
    const double batches = static_cast<double>(reports.size());
    auto ns_per = [](double s, double n) { return n > 0.0 ? s * 1e9 / n : 0.0; };
    std::uint64_t reordered = 0, deferred = 0;
    for (const BatchReport& r : reports) {
        reordered += r.reordered ? 1 : 0;
        deferred += r.defer_compute ? 1 : 0;
    }
    std::uint64_t delta_epochs = 0, activations = 0, traversals = 0;
    for (const EpochDecision& d : decisions) {
        delta_epochs += d.delta ? 1 : 0;
        activations += d.work.activations;
        traversals += d.work.traversals;
    }
    const double epochs = static_cast<double>(decisions.size());
    const char* path_names[3] = {"usc", "reordered", "baseline"};
    std::vector<Metric> metrics{
        {"stream.reorder.ns_per_edge", ns_per(sum.reorder, ops), "ns/edge",
         "reorder_and_reserve, per streamed edge"},
        {"stream.reorder.batches", static_cast<double>(reordered), "count",
         "per pass"},
        {"core.decide.ns_per_edge", ns_per(sum.decide, ops), "ns/edge",
         "drive_batch minus its update callback"},
        {"core.abr.reorder_share", ratio(reordered, batches), "share", ""},
        {"core.oca.deferred_share", ratio(deferred, batches), "share", ""},
    };
    for (int k = 0; k < 3; ++k) {
        metrics.push_back({std::string("stream.update.") + path_names[k] +
                               ".ns_per_edge",
                           ns_per(sum.update[k],
                                  static_cast<double>(sum.update_edges[k])),
                           "ns/edge", "per edge of the path's batches"});
    }
    for (int k = 0; k < 3; ++k) {
        metrics.push_back(
            {std::string("stream.update.") + path_names[k] + ".batches",
             static_cast<double>(sum.update_batches[k]) / n_pairs, "count",
             "per pass"});
    }
    const bool depth2 = w.analytics && w.depth >= 2;
    const double tiers[3] = {static_cast<double>(census.vertices[0]),
                             static_cast<double>(census.vertices[1]),
                             static_cast<double>(census.vertices[2])};
    const double update_n = sum.update_total();
    const double sim_edges = static_cast<double>(ctx.inputs.ops);
    const std::vector<Metric> more{
        {"stream.pending.ns_per_edge", ns_per(sum.pending, ops), "ns/edge",
         "note_batch + hand_off (+ caller drain)"},
        {"graph.snapshot.ns_per_copied_edge",
         ns_per(sum.snapshot, static_cast<double>(sum.copied_edges)),
         "ns/edge", "SnapshotStore::publish"},
        {"graph.snapshot.copied_edges_per_epoch",
         ratio(static_cast<double>(sum.copied_edges),
               static_cast<double>(sum.epochs)),
         "count", ""},
        {"graph.snapshot.dirty_vertices_per_epoch",
         ratio(static_cast<double>(sum.dirty_vertices),
               static_cast<double>(sum.epochs)),
         "count", ""},
        {"analytics.epoch_ms_p50",
         epoch_busy_ms.empty() ? 0.0 : median(epoch_busy_ms), "ms",
         "n=" + std::to_string(epoch_busy_ms.size())},
        {"analytics.delta_share", ratio(delta_epochs, epochs), "share",
         "delta rounds / all rounds"},
        {"analytics.activations_per_epoch", ratio(activations, epochs),
         "count", ""},
        {"analytics.traversals_per_epoch", ratio(traversals, epochs),
         "count", ""},
        {"core.pipeline.stall_share",
         ratio(pipeline.stall_seconds, untraced_total), "share",
         "untraced runs"},
        {"core.pipeline.stalls",
         static_cast<double>(pipeline.backpressure_stalls) / n_pairs, "count",
         "per pass, untraced runs"},
        {"core.pipeline.overlap_share",
         depth2 ? std::max(0.0, ratio(compute_busy - pipeline.stall_seconds,
                                      compute_busy))
                : 0.0,
         "share", "compute time hidden under ingest, untraced runs"},
        {"graph.renumber.monitor_ns_per_edge",
         ns_per(sum.renumber_monitor, ops), "ns/edge", ""},
        {"graph.renumber.passes",
         static_cast<double>(sum.renumber_passes) / n_pairs, "count",
         "per pass"},
        {"graph.store.tier0_vertices", tiers[0], "count",
         "hybrid tier census at stream end"},
        {"graph.store.tier1_vertices", tiers[1], "count", ""},
        {"graph.store.tier2_vertices", tiers[2], "count", ""},
        {"common.pool.update_speedup",
         ratio(single.times.update_total(), update_n / n_pairs), "ratio",
         "1 thread vs " + std::to_string(threads)},
        {"sim.update_cycles_per_edge", ratio(sim.total_cycles(), sim_edges),
         "cycles/edge", "modeled, Table-1 machine"},
        {"trace.overhead_share",
         median(traced_wall) / median(untraced_wall) - 1.0, "share",
         std::to_string(pairs) + " traced/untraced pairs"},
        {"trace.coverage_share", ratio(sum.caller_total(), traced_total),
         "share", "timed caller-thread calls / traced wall"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());
    print_metrics(metrics);

    // Modeled beside measured, per update path.
    std::printf("update path      wall ns/edge (%zu thr)  wall ns/edge (1 thr)"
                "  modeled cycles/edge\n",
                threads);
    std::vector<int> present;
    for (int k = 0; k < 3; ++k) {
        const double wall = ns_per(sum.update[k],
                                   static_cast<double>(sum.update_edges[k]));
        const double one = ns_per(
            single.times.update[k],
            static_cast<double>(single.times.update_edges[k]));
        const double cyc = ratio(sim.cycles[k],
                                 static_cast<double>(sim.edges[k]));
        std::printf("  %-14s %20.4g %21.4g %20.4g\n", path_names[k], wall, one,
                    cyc);
        if (sum.update_edges[k] > 0 && sim.edges[k] > 0) {
            present.push_back(k);
        }
    }
    auto cost = [&](int k, bool modeled) {
        return modeled ? ratio(sim.cycles[k], static_cast<double>(sim.edges[k]))
                       : ns_per(sum.update[k],
                                static_cast<double>(sum.update_edges[k]));
    };
    for (std::size_t i = 0; i < present.size(); ++i) {
        for (std::size_t j = i + 1; j < present.size(); ++j) {
            const int a = present[i], b = present[j];
            const bool wall_a = cost(a, false) < cost(b, false);
            const bool model_a = cost(a, true) < cost(b, true);
            std::printf("  %s vs %s: wall-clock ranks %s cheaper, model "
                        "ranks %s cheaper%s\n",
                        path_names[a], path_names[b],
                        path_names[wall_a ? a : b], path_names[model_a ? a : b],
                        wall_a == model_a ? "" : "  <- DISAGREE");
        }
    }
    std::printf("  modeled update total %.4g cycles/edge vs wall %.4g "
                "ns/edge; the model's per-batch path choices %s the "
                "engine's\n",
                ratio(sim.total_cycles(), sim_edges), ns_per(update_n, ops),
                diff_decisions(reports, sim.reports, "sim").empty()
                    ? "equal"
                    : "differ from");

    if (!error.empty()) {
        std::printf("CORRECTNESS MISMATCH: %s\n", error.c_str());
    } else {
        std::printf("correctness: traced run reproduced the untraced run's "
                    "decisions and final graph; both equal the reference\n");
    }
    print_result(error.empty(), attempted, failed, metrics);
    return error.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) {
        std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                             "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    try {
        Context ctx;
        ctx.args = *args;
        ctx.workload = &find_workload(args->workload);
        const Workload& w = *ctx.workload;
        ctx.inputs = make_inputs(w, args->seed);
        ctx.rss_base_mb = status_mb("VmRSS");
        std::printf("perfbench: workload=%s seed=%" PRIu64
                    " seconds=%g trace=%d\n",
                    w.name.c_str(), args->seed, args->seconds,
                    args->trace ? 1 : 0);
        std::printf("closed loop, 1 caller; pool %zu threads incl. caller; "
                    "backend %s; depth %u; OCA %s; renumber %s; compute %s\n",
                    pool_threads(), igs::core::to_string(w.backend), w.depth,
                    w.oca ? "on" : "off", w.renumber ? "on" : "off",
                    w.analytics ? "PR+SSSP+BFS (auto)" : "none");
        std::printf("inputs: %zu batches x %zu ops (%" PRIu64 " ops)%s\n",
                    ctx.inputs.batches.size(), w.batch_size, ctx.inputs.ops,
                    ctx.inputs.prefix ? ", build-up prefix in set-up" : "");
        return args->trace ? run_traced(ctx) : run_untraced(ctx);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
