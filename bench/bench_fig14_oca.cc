/**
 * @file
 * Fig 14 reproduction: compute-phase speedup from overlap-based compute
 * aggregation (OCA) across all datasets and batch sizes.
 *
 * Paper: up to 2.7x; average 1.24x (incremental PR) and 1.26x
 * (incremental SSSP); OCA activates predominantly at larger batch sizes.
 */
#include "bench_support.h"

int
main(int argc, char** argv)
{
    igs::bench::JsonSink json_sink("fig14_oca", argc, argv);
    using namespace igs;
    using bench::Algo;
    using core::UpdatePolicy;

    bench::banner("Fig 14: OCA compute speedup",
                  "Fig 14 (up to 2.7x; avg 1.24x PR / 1.26x SSSP; "
                  "activates at larger batch sizes)",
                  "overlap threshold 0.25, measured on ABR-active batches");

    std::vector<std::size_t> batch_sizes = gen::paper_batch_sizes();
    if (argc > 1 && std::string(argv[1]) == "--quick") {
        batch_sizes = {1000, 100000};
    }
    const bool sweep = argc > 1 && std::string(argv[1]) == "--sweep";

    if (sweep) {
        // Ablation: OCA threshold sensitivity on yt (paper §5 narrative:
        // 0.15 would already trigger yt-10K for only an 8% gain).
        const auto& ds = gen::find_dataset("yt");
        TextTable t({"threshold", "compute speedup @10K",
                     "compute speedup @100K"});
        const std::size_t sizes[2] = {10000, 100000};
        Cycles off[2];
        for (int i = 0; i < 2; ++i) {
            off[i] = bench::run_stream(ds, sizes[i],
                                       bench::batches_for(sizes[i]),
                                       UpdatePolicy::kBaseline,
                                       Algo::kPageRank)
                         .compute_cycles;
        }
        for (double th : {0.1, 0.15, 0.25, 0.4, 0.5}) {
            double sp[2];
            for (int i = 0; i < 2; ++i) {
                const auto on = bench::run_stream(
                    ds, sizes[i], bench::batches_for(sizes[i]),
                    UpdatePolicy::kBaseline, Algo::kPageRank,
                    {.enabled = true, .threshold = th});
                sp[i] = static_cast<double>(off[i]) /
                        static_cast<double>(on.compute_cycles);
            }
            t.row().cell(th, 2).cell(sp[0]).cell(sp[1]);
        }
        t.print();
        return 0;
    }

    TextTable t({"dataset", "batch", "PR speedup", "SSSP speedup",
                 "overlap", "activated"});
    std::vector<double> pr_all;
    std::vector<double> sssp_all;
    double max_speedup = 0.0;
    for (const auto& ds : gen::registry()) {
        for (std::size_t b : batch_sizes) {
            const std::size_t nb = bench::batches_for(b);
            double sp[2];
            double overlap = 0.0;
            bool activated = false;
            int i = 0;
            for (Algo algo : {Algo::kPageRank, Algo::kSssp}) {
                const auto off = bench::run_stream(
                    ds, b, nb, UpdatePolicy::kBaseline, algo);
                const auto on = bench::run_stream(
                    ds, b, nb, UpdatePolicy::kBaseline, algo,
                    {.enabled = true});
                sp[i++] = static_cast<double>(off.compute_cycles) /
                          static_cast<double>(
                              std::max<Cycles>(on.compute_cycles, 1));
                for (const auto& rec : on.batches) {
                    overlap = std::max(overlap, rec.report.overlap);
                    activated = activated || rec.report.defer_compute;
                }
            }
            pr_all.push_back(sp[0]);
            sssp_all.push_back(sp[1]);
            max_speedup = std::max({max_speedup, sp[0], sp[1]});
            t.row()
                .cell(ds.name)
                .cell(static_cast<std::uint64_t>(b))
                .cell(sp[0])
                .cell(sp[1])
                .cell(overlap)
                .cell(std::string(activated ? "yes" : "no"));
        }
    }
    t.print();
    std::printf("\naverage compute speedup: PR %.2fx (paper 1.24x), SSSP "
                "%.2fx (paper 1.26x); max %.2fx (paper 2.7x)\n",
                mean(pr_all), mean(sssp_all), max_speedup);
    return 0;
}
