/**
 * @file
 * Measurement primitives of the benchmark: the host clock, a seeded
 * generator, peak RSS, medians, the log-linear latency histogram and
 * the rule for which tail percentile a sample supports.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench
{

/** Host time in nanoseconds (steady clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
}

inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** SplitMix64: the benchmark's only source of randomness, so one
 *  --seed fixes every generated input. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Peak resident set (VmHWM) of this process in MiB; 0 if unknown. */
double peakRssMib();

/** Restart the peak at the current resident set; false if the kernel
 *  refuses. */
bool resetPeakRss();

/** Median of @p v (mean of the middle two for even sizes); 0 when
 *  empty. */
double median(std::vector<double> v);

/**
 * The highest of the percentiles 50, 90, 99, 99.9, ... that leaves at
 * least ten of @p samples beyond it, or 0 when even the median does
 * not (fewer than 20 samples).
 */
double supportedPercentile(std::uint64_t samples);

/**
 * Latency histogram with 128 linear sub-buckets per power of two, so
 * a reported quantile is within 0.4% of the sample it stands for
 * (the service's own LatencyHistogram has one bucket per power of
 * two). Samples that never completed — refused records — are counted
 * as missing and rank above every recorded value.
 */
class LatencyHistogram
{
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    static constexpr std::size_t kBuckets = kSub * (64 - kSubBits + 1);

    LatencyHistogram() : buckets_(kBuckets, 0) {}

    static std::size_t
    bucketOf(std::uint64_t ns)
    {
        if (ns < kSub)
            return static_cast<std::size_t>(ns);
        const unsigned e = static_cast<unsigned>(std::bit_width(ns))
                - 1 - kSubBits;
        return static_cast<std::size_t>(kSub + e * kSub
                                        + ((ns >> e) - kSub));
    }

    /** Midpoint of bucket @p b, in ns. */
    static double
    bucketMid(std::size_t b)
    {
        if (b < kSub)
            return static_cast<double>(b);
        const std::size_t e = (b - kSub) / kSub;
        const std::uint64_t m = kSub + (b - kSub) % kSub;
        const double lo = std::ldexp(static_cast<double>(m),
                                     static_cast<int>(e));
        return lo + std::ldexp(0.5, static_cast<int>(e));
    }

    void
    record(std::uint64_t ns)
    {
        ++buckets_[bucketOf(ns)];
        ++recorded_;
    }

    void addMissing(std::uint64_t n) { missing_ += n; }

    void
    merge(const LatencyHistogram& o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            buckets_[i] += o.buckets_[i];
        recorded_ += o.recorded_;
        missing_ += o.missing_;
    }

    std::uint64_t samples() const { return recorded_ + missing_; }

    /** The @p pct percentile in ns (nearest rank over all samples);
     *  +inf when it falls among the missing ones, 0 when empty. */
    double
    percentileNs(double pct) const
    {
        const std::uint64_t n = samples();
        if (n == 0)
            return 0.0;
        const auto rank = static_cast<std::uint64_t>(
                std::ceil(pct / 100.0 * static_cast<double>(n)));
        const std::uint64_t want = std::max<std::uint64_t>(rank, 1);
        if (want > recorded_)
            return std::numeric_limits<double>::infinity();
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            seen += buckets_[b];
            if (seen >= want)
                return bucketMid(b);
        }
        return std::numeric_limits<double>::infinity();
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t recorded_ = 0;
    std::uint64_t missing_ = 0;
};

/**
 * Open-loop arrival schedule: record i is due at start + i / rate.
 * The generator sends every record whose due time has passed, so a
 * stall in the system delays nothing but the records themselves,
 * and latency is timed from dueNs(i), not from the actual send.
 */
class OpenLoopSchedule
{
  public:
    OpenLoopSchedule(double rate_per_s, std::uint64_t start_ns)
        : period_ns_(1e9 / rate_per_s), start_ns_(start_ns)
    {
    }

    std::uint64_t
    dueNs(std::uint64_t i) const
    {
        return start_ns_
                + static_cast<std::uint64_t>(
                        static_cast<double>(i) * period_ns_);
    }

    /** Number of records due at @p now_ns: the i with dueNs(i) <=
     *  now_ns, which are exactly [0, dueCount(now_ns)). */
    std::uint64_t
    dueCount(std::uint64_t now_ns) const
    {
        if (now_ns < start_ns_)
            return 0;
        auto n = static_cast<std::uint64_t>(
                static_cast<double>(now_ns - start_ns_) / period_ns_)
                + 1;
        // Repair the floating-point floor so the count agrees with
        // dueNs() exactly.
        while (n > 0 && dueNs(n - 1) > now_ns)
            --n;
        while (dueNs(n) <= now_ns)
            ++n;
        return n;
    }

    std::uint64_t startNs() const { return start_ns_; }

  private:
    double period_ns_;
    std::uint64_t start_ns_;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
