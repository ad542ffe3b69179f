/**
 * @file
 * Google-benchmark micro-benchmarks for the library's hot primitives:
 * batch reordering (parallel stable sort + run index), adjacency-list
 * mutation, the generator, and the cache/NoC
 * models.  These measure host wall time (unlike the figure harnesses,
 * which report simulated cycles).
 */
#include <benchmark/benchmark.h>

#include "bench_support.h"
#include "common/parallel_sort.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "gen/datasets.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/indexed_adjacency.h"
#include "sim/cache.h"
#include "sim/noc.h"
#include "stream/reorder.h"

namespace {

using namespace igs;

std::vector<StreamEdge>
sample_edges(std::size_t n)
{
    auto g = gen::find_dataset("wiki").make_generator();
    return g.take(n);
}

void
BM_ReorderBatch(benchmark::State& state)
{
    const auto edges = sample_edges(static_cast<std::size_t>(state.range(0)));
    ThreadPool pool(2);
    for (auto _ : state) {
        auto rb = stream::reorder_batch(edges, pool);
        benchmark::DoNotOptimize(rb.by_src.runs.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReorderBatch)->Arg(10000)->Arg(100000);

void
BM_ParallelStableSort(benchmark::State& state)
{
    Rng rng(1);
    std::vector<std::uint64_t> base(
        static_cast<std::size_t>(state.range(0)));
    for (auto& v : base) {
        v = rng();
    }
    ThreadPool pool(2);
    for (auto _ : state) {
        auto copy = base;
        parallel_stable_sort(copy.begin(), copy.end(), std::less<>(), pool);
        benchmark::DoNotOptimize(copy.front());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelStableSort)->Arg(10000)->Arg(100000);

void
BM_AdjacencyListInsert(benchmark::State& state)
{
    const auto edges = sample_edges(100000);
    for (auto _ : state) {
        graph::AdjacencyList g(200000);
        for (const auto& e : edges) {
            g.apply_insert(e.src, {e.dst, e.weight}, Direction::kOut);
        }
        benchmark::DoNotOptimize(g.num_edges());
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_AdjacencyListInsert);

void
BM_IndexedAdjacencyInsert(benchmark::State& state)
{
    const auto edges = sample_edges(100000);
    for (auto _ : state) {
        graph::IndexedAdjacency g(200000);
        for (const auto& e : edges) {
            g.apply_insert(e.src, {e.dst, e.weight}, Direction::kOut);
        }
        benchmark::DoNotOptimize(g.num_edges());
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_IndexedAdjacencyInsert);

void
BM_DegreeAwareHashInsert(benchmark::State& state)
{
    const auto edges = sample_edges(100000);
    for (auto _ : state) {
        graph::DegreeAwareHash g(200000);
        for (const auto& e : edges) {
            g.apply_insert(e.src, {e.dst, e.weight}, Direction::kOut);
        }
        benchmark::DoNotOptimize(g.num_edges());
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_DegreeAwareHashInsert);

void
BM_EdgeStreamGenerate(benchmark::State& state)
{
    auto g = gen::find_dataset("wiki").make_generator();
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.next());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdgeStreamGenerate);

void
BM_CacheLookup(benchmark::State& state)
{
    sim::Cache cache(32 * 1024, 8, 64);
    Rng rng(4);
    std::vector<sim::LineAddr> lines(4096);
    for (auto& l : lines) {
        l = rng.below(2048);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto line = lines[i++ & 4095];
        if (!cache.lookup(line)) {
            cache.fill(line);
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void
BM_NocSend(benchmark::State& state)
{
    sim::NocModel noc{sim::MachineParams{}};
    Rng rng(5);
    Cycles now = 0;
    for (auto _ : state) {
        const auto from = static_cast<std::uint32_t>(rng.below(16));
        const auto to = static_cast<std::uint32_t>(rng.below(16));
        benchmark::DoNotOptimize(
            noc.send(from, to, 32, sim::PacketClass::kTask, ++now));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocSend);

} // namespace

int
main(int argc, char** argv)
{
    // The sink strips --json=<path> first — google-benchmark aborts on
    // flags it does not recognize.
    igs::bench::JsonSink json_sink("micro_primitives", argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
