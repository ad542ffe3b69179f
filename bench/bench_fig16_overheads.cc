/**
 * @file
 * Fig 16 reproduction: instrumentation overheads of ABR and OCA.
 *
 *  (a) Speedup of an ABR-active batch vs the same batch uninstrumented:
 *      ~0.90x when the batch is reordered (run-index instrumentation),
 *      ~0.54x when not (concurrent-hash-map instrumentation).
 *  (b) OCA's latest_bid/counter upkeep is nearly free (~0.99x).
 */
#include "bench_support.h"

int
main(int argc, char** argv)
{
    igs::bench::JsonSink json_sink("fig16_overheads", argc, argv);
    using namespace igs;
    using bench::Algo;
    using core::UpdatePolicy;

    bench::banner("Fig 16: ABR and OCA overheads",
                  "Fig 16 (a: reordered ~0.90x / non-reordered ~0.54x "
                  "active-batch slowdown; b: OCA ~0.99x)",
                  "");

    std::printf("--- (a) ABR-active batch overhead ---\n");
    {
        TextTable t({"instrumentation path", "dataset", "batch",
                     "active-batch speedup", "paper"});
        // Reordered path: friendly dataset where ABR keeps reordering.
        {
            const auto& ds = gen::find_dataset("wiki");
            const std::size_t b = 100000;
            core::AbrParams every;
            every.n = 1; // instrument every batch
            const auto instr = bench::run_stream(
                ds, b, 3, UpdatePolicy::kAbrUsc, Algo::kNone,
                {.enabled = false}, every);
            const auto plain = bench::run_stream(
                ds, b, 3, UpdatePolicy::kAlwaysReorderUsc, Algo::kNone);
            t.row()
                .cell(std::string("reordered (run index)"))
                .cell(ds.name)
                .cell(static_cast<std::uint64_t>(b))
                .cell(static_cast<double>(plain.update_cycles) /
                      static_cast<double>(instr.update_cycles))
                .cell(std::string("0.90x"));
        }
        // Non-reordered path: adverse dataset, hash-map instrumentation.
        {
            const auto& ds = gen::find_dataset("lj");
            const std::size_t b = 100000;
            core::AbrParams every;
            every.n = 1;
            // ABR falls back to baseline after batch 1; from then on every
            // active batch pays the concurrent-hash-map path.
            const auto instr = bench::run_stream(
                ds, b, 4, UpdatePolicy::kAbr, Algo::kNone,
                {.enabled = false}, every);
            const auto plain = bench::run_stream(
                ds, b, 4, UpdatePolicy::kBaseline, Algo::kNone);
            // Compare only batches 2.. (batch 1 of the ABR run reorders).
            Cycles i_cyc = 0;
            Cycles p_cyc = 0;
            for (std::size_t k = 1; k < 4; ++k) {
                i_cyc += instr.batches[k].report.update.cycles;
                p_cyc += plain.batches[k].report.update.cycles;
            }
            t.row()
                .cell(std::string("non-reordered (hash map)"))
                .cell(ds.name)
                .cell(static_cast<std::uint64_t>(b))
                .cell(static_cast<double>(p_cyc) /
                      static_cast<double>(i_cyc))
                .cell(std::string("0.54x"));
        }
        t.print();
    }

    std::printf("\n--- (b) OCA overhead ---\n");
    {
        TextTable t({"configuration", "dataset", "speedup vs no OCA",
                     "paper"});
        const auto& ds = gen::find_dataset("stack");
        const std::size_t b = 100000;
        const std::size_t nb = bench::batches_for(b);
        // Compare update cycles with OCA instrumentation on vs off, with
        // identical update paths (compute excluded to isolate upkeep).
        const auto with_oca = bench::run_stream(
            ds, b, nb, UpdatePolicy::kAbrUsc, Algo::kNone, {.enabled = true});
        const auto without = bench::run_stream(
            ds, b, nb, UpdatePolicy::kAbrUsc, Algo::kNone, {.enabled = false});
        t.row()
            .cell(std::string("ABR+USC+OCA vs ABR+USC"))
            .cell(ds.name)
            .cell(static_cast<double>(without.update_cycles) /
                  static_cast<double>(with_oca.update_cycles))
            .cell(std::string("~0.99x"));
        t.print();
    }
    return 0;
}
