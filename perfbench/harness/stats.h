/**
 * @file
 * Sample statistics for the wall-clock benchmark.
 *
 * Percentiles use the nearest-rank definition and are only reported when
 * at least ten samples lie strictly above the chosen rank, so a p95 needs
 * 200 samples and a p50 needs 20.  Quartiles follow Python's
 * `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
 * how run-to-run spread of the end-to-end metrics is judged.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
inline constexpr std::size_t kSamplesBeyond = 10;

/** Smallest sample count for which percentile `p` (in (0, 1)) reports. */
inline std::size_t
min_samples_for(double p)
{
    // Beyond-count is n - ceil(p n); the smallest n with n - ceil(p n) >= 10.
    for (std::size_t n = 1;; ++n) {
        const auto rank =
            static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
        if (n - rank >= kSamplesBeyond) {
            return n;
        }
    }
}

/**
 * Nearest-rank percentile `p` in (0, 1) of `samples`, or nullopt when
 * fewer than ten samples lie beyond it.
 */
inline std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (!(p > 0.0 && p < 1.0)) {
        throw std::invalid_argument("percentile: p must lie in (0, 1)");
    }
    const std::size_t n = samples.size();
    const auto rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    if (n == 0 || rank == 0 || n - rank < kSamplesBeyond) {
        return std::nullopt;
    }
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/** Median (mean of the two middle samples for an even count). */
inline double
median(std::vector<double> samples)
{
    if (samples.empty()) {
        throw std::invalid_argument("median of no samples");
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/** First, second and third quartile. */
struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/** Python's statistics.quantiles(samples, n=4), method "exclusive";
 *  needs at least two samples. */
inline Quartiles
quartiles(std::vector<double> samples)
{
    const std::size_t ld = samples.size();
    if (ld < 2) {
        throw std::invalid_argument("quartiles need at least two samples");
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t m = ld + 1;
    double q[3] = {0.0, 0.0, 0.0};
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        q[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
    }
    return {q[0], q[1], q[2]};
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
