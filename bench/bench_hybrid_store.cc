/**
 * @file
 * Three-tier hybrid adjacency store harness (DESIGN.md §12).
 *
 * Two legs:
 *
 *  1. Store sweep — replays the baseline edge-centric kernel over the
 *     same stream against all three adjacency structures (AS
 *     adjacency-list, DAH degree-aware hashing, hybrid three-tier) under
 *     the Table-1 timing model, reporting modeled update cycles and the
 *     duplicate-check probe counts the structures were built to shrink.
 *     Sweeps Table-2 dataset models plus a hub-heavy R-MAT stream whose
 *     top vertices cross both tier thresholds.
 *
 *  2. Equivalence leg — drives RealTimeEngine (adjacency-list backend)
 *     and HybridRealTimeEngine over an identical ABR+USC stream on a
 *     single-worker pool and counts exact mismatches: directed edges
 *     whose (id, weight) differ bitwise, and incremental-PageRank ranks
 *     differing beyond 1e-9.  Both counts are integers and golden-pinned
 *     at zero, which is the "byte-identical analytics across backends"
 *     acceptance gate in CI.
 *
 * The `golden` set pins its batch counts (IGS_BENCH_SCALE deliberately
 * has no effect) so `--json` output is a deterministic function of the
 * code: `ctest -L golden` diffs it against tests/golden/golden_hybrid.json.
 *
 * Usage: bench_hybrid_store [--set=all|table2|rmat|golden] [--json=<path>]
 *                           [--dah-threshold=<n>] [--hybrid-threshold=<n>]
 */
#include "bench_support.h"

#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "gen/rmat.h"
#include "graph/adjacency_list.h"
#include "sim/sim_context.h"
#include "stream/batch.h"
#include "stream/updaters.h"

namespace {

using namespace igs;

/** One pinned replay: an edge source at one batch size. */
struct Workload {
    const char* source; // Table-2 short name, or "rmat-hub"
    std::size_t batch_size;
    std::size_t num_batches;
};

struct SweepSet {
    const char* name;
    std::vector<Workload> runs;
    /** Whether this set also runs the engine equivalence leg. */
    bool equivalence;
};

/** One store arm of one workload. */
struct ArmResult {
    const char* store = "?";
    stream::UpdateStats stats;
    EdgeId num_edges = 0;
    graph::HybridStore::TierCensus census{}; // hybrid arm only
    bool has_census = false;
};

/** Integer outcome of the cross-backend engine replay. */
struct EquivResult {
    const char* source = "?";
    std::size_t batch_size = 0;
    std::size_t num_batches = 0;
    EdgeId num_edges_as = 0;
    EdgeId num_edges_hybrid = 0;
    std::uint64_t edges_mismatched = 0;
    std::uint64_t pr_mismatched_vertices = 0;
    bool topology_equal = false;
};

/** Hub-heavy R-MAT: skew strong enough that the hottest vertices cross
 *  both the sorted and the hash tier thresholds within a few batches. */
gen::RmatParams
hub_rmat_params()
{
    gen::RmatParams rp;
    rp.scale = 14;
    rp.a = 0.65;
    rp.b = 0.15;
    rp.c = 0.15;
    rp.noise = 0.05;
    rp.seed = 11;
    return rp;
}

/** The golden set pins both legs; keep each run well under a second. */
const std::vector<SweepSet>&
sets()
{
    static const std::vector<SweepSet> kSets = {
        {"all",
         {
             {"wiki", 10000, 4},
             {"wiki", 100000, 2},
             {"lj", 10000, 4},
             {"lj", 100000, 2},
             {"rmat-hub", 10000, 4},
             {"rmat-hub", 50000, 2},
         },
         true},
        {"table2",
         {
             {"wiki", 10000, 4},
             {"wiki", 100000, 2},
             {"lj", 10000, 4},
             {"lj", 100000, 2},
         },
         false},
        {"rmat",
         {
             {"rmat-hub", 10000, 4},
             {"rmat-hub", 50000, 2},
         },
         false},
        {"golden",
         {
             {"wiki", 5000, 4},
             {"rmat-hub", 5000, 4},
         },
         true},
    };
    return kSets;
}

/** Replay `wl` batches through the baseline kernel on store `g`,
 *  accumulating the modeled update statistics. */
template <typename Graph, typename Gen>
stream::UpdateStats
replay_store(Graph& g, Gen& genr, std::size_t num_vertices,
             const Workload& wl)
{
    sim::ExecSim exec(sim::MachineParams{}.num_cores, num_vertices * 2);
    const sim::SwCostParams sw;
    stream::UpdateStats total;
    for (std::uint64_t k = 1; k <= wl.num_batches; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        batch.set_edges(genr.take(wl.batch_size));
        sim::SimContext ctx(exec, sw);
        stream::apply_batch_baseline(g, batch, ctx);
        total += ctx.stats();
    }
    return total;
}

/** Run one workload against all three stores (identical streams: each
 *  arm draws from a freshly seeded generator). */
template <typename MakeGen>
std::vector<ArmResult>
run_arms(MakeGen&& make_gen, std::size_t num_vertices, const Workload& wl)
{
    std::vector<ArmResult> arms;
    {
        ArmResult a;
        a.store = "as";
        graph::AdjacencyList g(num_vertices);
        auto genr = make_gen();
        a.stats = replay_store(g, genr, num_vertices, wl);
        a.num_edges = g.num_edges();
        arms.push_back(a);
    }
    {
        ArmResult a;
        a.store = "dah";
        graph::DegreeAwareHash g(num_vertices, bench::store_tuning());
        auto genr = make_gen();
        a.stats = replay_store(g, genr, num_vertices, wl);
        a.num_edges = g.num_edges();
        arms.push_back(a);
    }
    {
        ArmResult a;
        a.store = "hybrid";
        graph::HybridStore g(num_vertices, bench::store_tuning());
        auto genr = make_gen();
        a.stats = replay_store(g, genr, num_vertices, wl);
        a.num_edges = g.num_edges();
        a.census = g.tier_census();
        a.has_census = true;
        g.publish_tier_telemetry();
        arms.push_back(a);
    }
    return arms;
}

std::vector<ArmResult>
run_workload(const Workload& wl)
{
    if (std::strcmp(wl.source, "rmat-hub") == 0) {
        const gen::RmatParams rp = hub_rmat_params();
        const std::size_t n = gen::RmatGenerator(rp).num_vertices();
        return run_arms([&rp] { return gen::RmatGenerator(rp); }, n, wl);
    }
    const gen::DatasetSpec& ds = gen::find_dataset(wl.source);
    return run_arms([&ds] { return ds.make_generator(); },
                    ds.model.num_vertices, wl);
}

/** Directed edges whose sorted (id, weight) sequences differ bitwise. */
template <typename A, typename B>
std::uint64_t
count_edge_mismatches(const A& a, const B& b)
{
    std::uint64_t mismatched = 0;
    const std::size_t n = std::max(a.num_vertices(), b.num_vertices());
    for (VertexId v = 0; v < n; ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto ea = v < a.num_vertices()
                                ? a.sorted_edges(v, dir)
                                : std::vector<Neighbor>{};
            const auto eb = v < b.num_vertices()
                                ? b.sorted_edges(v, dir)
                                : std::vector<Neighbor>{};
            const std::size_t len = std::max(ea.size(), eb.size());
            for (std::size_t i = 0; i < len; ++i) {
                if (i >= ea.size() || i >= eb.size() ||
                    ea[i].id != eb[i].id || ea[i].weight != eb[i].weight) {
                    ++mismatched;
                }
            }
        }
    }
    return mismatched;
}

/**
 * Drive both engine backends over the identical stream and count exact
 * divergences.  Single-worker pool: identical task order on both sides
 * makes per-vertex weight accumulation bit-identical, so any nonzero
 * count is a real backend bug, not scheduling noise.
 */
EquivResult
run_equivalence(const Workload& wl)
{
    EquivResult eq;
    eq.source = wl.source;
    eq.batch_size = wl.batch_size;
    eq.num_batches = wl.num_batches;

    const gen::DatasetSpec& ds = gen::find_dataset(wl.source);
    ThreadPool pool(1);
    core::EngineConfig cfg;
    cfg.policy = core::UpdatePolicy::kAbrUsc;
    cfg.store = bench::store_tuning();

    core::RealTimeEngine as_engine(cfg, ds.model.num_vertices, pool);
    cfg.graph_backend = core::GraphBackend::kHybrid;
    core::AnyRealTimeEngine hy_engine(cfg, ds.model.num_vertices, pool);

    analytics::incremental::PageRank pr_as;
    analytics::incremental::PageRank pr_hy;
    pr_as.full_rerun(as_engine.graph());
    pr_hy.full_rerun(hy_engine.engine<graph::HybridStore>().graph());
    auto gen_as = ds.make_generator();
    auto gen_hy = ds.make_generator();
    for (std::uint64_t k = 1; k <= wl.num_batches; ++k) {
        stream::EdgeBatch ba;
        ba.id = k;
        ba.set_edges(gen_as.take(wl.batch_size));
        stream::EdgeBatch bh;
        bh.id = k;
        bh.set_edges(gen_hy.take(wl.batch_size));
        (void)as_engine.ingest(ba);
        (void)hy_engine.ingest(bh);
        if (as_engine.compute_due() && hy_engine.compute_due()) {
            const auto wa = as_engine.take_pending_work();
            const auto wh = hy_engine.take_pending_work();
            (void)bench::compute_round(pr_as, as_engine.graph(), wa);
            (void)bench::compute_round(
                pr_hy, hy_engine.engine<graph::HybridStore>().graph(), wh);
        }
    }

    const graph::AdjacencyList& ga = as_engine.graph();
    const graph::HybridStore& gh =
        hy_engine.engine<graph::HybridStore>().graph();
    eq.num_edges_as = ga.num_edges();
    eq.num_edges_hybrid = gh.num_edges();
    eq.edges_mismatched = count_edge_mismatches(ga, gh);
    eq.topology_equal = same_topology(gh, ga);

    const auto& ra = pr_as.ranks();
    const auto& rh = pr_hy.ranks();
    const std::size_t n = std::max(ra.size(), rh.size());
    for (std::size_t v = 0; v < n; ++v) {
        const double x = v < ra.size() ? ra[v] : 0.0;
        const double y = v < rh.size() ? rh[v] : 0.0;
        // Iteration order differs across backends (tier promotion
        // re-sorts edge data), so PR sums associate differently; 1e-9
        // absolute is ~1e6x above the float-weight rounding floor.
        if (std::fabs(x - y) > 1e-9) {
            ++eq.pr_mismatched_vertices;
        }
    }
    return eq;
}

/**
 * Dedicated exporter (same top-level schema as bench_support.h's
 * JsonSink: schema_version / experiment / host / streams / telemetry).
 * The per-stream shape carries the store sweep's probe counters and the
 * equivalence leg's integer mismatch gauges, which the shared per-batch
 * record does not model.
 */
void
write_json(const std::string& path, const char* set_name,
           const std::vector<Workload>& runs,
           const std::vector<std::vector<ArmResult>>& results,
           const std::vector<EquivResult>& equiv, const Timer& wall)
{
    telemetry::JsonWriter w(2);
    w.begin_object();
    w.kv("schema_version", bench::JsonSink::kSchemaVersion);
    w.kv("experiment", "hybrid_store");
    w.key("host").begin_object();
    w.kv("bench_scale", bench::bench_scale());
    if (const char* e = std::getenv("IGS_BENCH_SCALE")) {
        w.kv("bench_scale_env", e);
    } else {
        w.key("bench_scale_env").null();
    }
    w.kv("dah_hash_threshold", bench::store_tuning().dah_hash_threshold);
    w.kv("hybrid_sorted_threshold",
         bench::store_tuning().hybrid_sorted_threshold);
    w.kv("hybrid_inline_capacity", graph::HybridEdgeSet::kInlineCapacity);
    w.kv("wall_seconds", wall.seconds());
    w.end_object();
    w.kv("set", set_name);
    w.key("streams").begin_array();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Workload& r = runs[i];
        for (const ArmResult& a : results[i]) {
            w.begin_object();
            w.kv("dataset", std::string(r.source) + "/" + a.store);
            w.kv("store", a.store);
            w.kv("batch_size", static_cast<std::uint64_t>(r.batch_size));
            w.kv("num_batches", static_cast<std::uint64_t>(r.num_batches));
            w.kv("update_cycles",
                 static_cast<std::uint64_t>(a.stats.cycles));
            w.kv("probes", a.stats.probes);
            w.kv("inserts", a.stats.inserts);
            w.kv("weight_updates", a.stats.weight_updates);
            w.kv("removes", a.stats.removes);
            w.kv("num_edges", static_cast<std::uint64_t>(a.num_edges));
            if (a.has_census) {
                w.kv("tier0_vertices",
                     static_cast<std::uint64_t>(a.census.vertices[0]));
                w.kv("tier1_vertices",
                     static_cast<std::uint64_t>(a.census.vertices[1]));
                w.kv("tier2_vertices",
                     static_cast<std::uint64_t>(a.census.vertices[2]));
            }
            w.end_object();
        }
    }
    for (const EquivResult& eq : equiv) {
        w.begin_object();
        w.kv("dataset", std::string(eq.source) + "/equivalence");
        w.kv("store", "equivalence");
        w.kv("batch_size", static_cast<std::uint64_t>(eq.batch_size));
        w.kv("num_batches", static_cast<std::uint64_t>(eq.num_batches));
        w.kv("num_edges_as", static_cast<std::uint64_t>(eq.num_edges_as));
        w.kv("num_edges_hybrid",
             static_cast<std::uint64_t>(eq.num_edges_hybrid));
        w.kv("edges_mismatched", eq.edges_mismatched);
        w.kv("pr_mismatched_vertices", eq.pr_mismatched_vertices);
        w.kv("topology_equal", eq.topology_equal);
        w.end_object();
    }
    w.end_array();
    w.key("telemetry").raw(telemetry::to_json(0));
    w.end_object();

    const std::string doc = w.take();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    Timer wall;
    std::string json_path;
    const char* set_name = "all";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else if (std::strncmp(argv[i], "--set=", 6) == 0) {
            set_name = argv[i] + 6;
        } else if (std::strncmp(argv[i], "--dah-threshold=", 16) == 0) {
            const long v = std::atol(argv[i] + 16);
            if (v > 0) {
                bench::store_tuning().dah_hash_threshold =
                    static_cast<std::uint32_t>(v);
            }
        } else if (std::strncmp(argv[i], "--hybrid-threshold=", 19) == 0) {
            const long v = std::atol(argv[i] + 19);
            if (v > 0) {
                bench::store_tuning().hybrid_sorted_threshold =
                    static_cast<std::uint32_t>(v);
            }
        }
    }
    const SweepSet* set = nullptr;
    for (const SweepSet& s : sets()) {
        if (s.name == std::string(set_name)) {
            set = &s;
        }
    }
    if (set == nullptr) {
        std::fprintf(stderr,
                     "usage: bench_hybrid_store [--set=<name>] "
                     "[--json=<path>] [--dah-threshold=<n>] "
                     "[--hybrid-threshold=<n>]\nsets:");
        for (const SweepSet& s : sets()) {
            std::fprintf(stderr, " %s", s.name);
        }
        std::fprintf(stderr, "\n");
        return 2;
    }

    bench::banner("hybrid three-tier adjacency store",
                  "DESIGN.md §12 (GraphTango-style tiers; not a paper "
                  "figure)",
                  set->name);

    TextTable t({"source", "batch", "store", "upd Mcyc", "probes/ins",
                 "speedup", "probe redux"});
    std::vector<std::vector<ArmResult>> results;
    results.reserve(set->runs.size());
    for (const Workload& wl : set->runs) {
        results.push_back(run_workload(wl));
        const std::vector<ArmResult>& arms = results.back();
        const ArmResult& as = arms.front();
        for (const ArmResult& a : arms) {
            const double probes_per_insert =
                a.stats.inserts == 0
                    ? 0.0
                    : static_cast<double>(a.stats.probes) /
                          static_cast<double>(a.stats.inserts);
            t.row()
                .cell(wl.source)
                .cell(static_cast<std::uint64_t>(wl.batch_size))
                .cell(a.store)
                .cell(static_cast<double>(a.stats.cycles) / 1e6)
                .cell(probes_per_insert)
                .cell(static_cast<double>(as.stats.cycles) /
                      static_cast<double>(a.stats.cycles))
                .cell(a.stats.probes == 0
                          ? 0.0
                          : static_cast<double>(as.stats.probes) /
                                static_cast<double>(a.stats.probes));
        }
    }
    t.print();

    for (const std::vector<ArmResult>& arms : results) {
        for (const ArmResult& a : arms) {
            if (a.has_census) {
                std::printf("tier census (%s arm): inline=%zu sorted=%zu "
                            "hashed=%zu vertices\n",
                            a.store, a.census.vertices[0],
                            a.census.vertices[1], a.census.vertices[2]);
            }
        }
    }

    std::vector<EquivResult> equiv;
    if (set->equivalence) {
        equiv.push_back(run_equivalence(Workload{"wiki", 2000, 6}));
        std::printf("\nengine equivalence (AS vs hybrid backend, ABR+USC, "
                    "1 worker):\n");
        for (const EquivResult& eq : equiv) {
            std::printf("  %s@%zu x%zu: edges %llu vs %llu, "
                        "edge mismatches=%llu, PR mismatches=%llu, "
                        "topology %s\n",
                        eq.source, eq.batch_size, eq.num_batches,
                        static_cast<unsigned long long>(eq.num_edges_as),
                        static_cast<unsigned long long>(eq.num_edges_hybrid),
                        static_cast<unsigned long long>(eq.edges_mismatched),
                        static_cast<unsigned long long>(
                            eq.pr_mismatched_vertices),
                        eq.topology_equal ? "equal" : "DIVERGED");
            if (eq.edges_mismatched != 0 || eq.pr_mismatched_vertices != 0 ||
                !eq.topology_equal) {
                std::fprintf(stderr,
                             "[bench] backend equivalence FAILED\n");
                return 1;
            }
        }
    }

    if (!json_path.empty()) {
        write_json(json_path, set->name, set->runs, results, equiv, wall);
    }
    return 0;
}
