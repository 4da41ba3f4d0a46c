/**
 * @file
 * Host wall-clock measurement: a monotonic stopwatch and a
 * log2-bucketed latency histogram with approximate quantiles.
 *
 * Everything else in the simulator runs on *simulated* time (Tick);
 * these types measure how long the simulator itself takes on the
 * host, which is how the allocator hot-path cost becomes visible in
 * the perf trajectory (BENCH_*.json).
 */

#ifndef GMLAKE_SUPPORT_STOPWATCH_HH
#define GMLAKE_SUPPORT_STOPWATCH_HH

#include <array>
#include <cstdint>

namespace gmlake
{

/** Monotonic host-time stopwatch (std::chrono::steady_clock). */
class Stopwatch
{
  public:
    Stopwatch() : mStart(nowNs()) {}

    /** Monotonic host time in nanoseconds (arbitrary epoch). */
    static std::uint64_t nowNs();

    void reset() { mStart = nowNs(); }
    std::uint64_t elapsedNs() const { return nowNs() - mStart; }

  private:
    std::uint64_t mStart;
};

/**
 * Latency histogram over power-of-two nanosecond buckets: bucket b
 * counts samples whose bit width is b, i.e. [2^(b-1), 2^b). Exact
 * count/sum/min/max; quantiles are interpolated within the bucket
 * that holds the requested rank, clamped to the observed min/max.
 *
 * Deliberately separate from SizeHistogram (support/histogram.hh):
 * that type streams double-valued summary stats and renders
 * workload shapes, while this one keeps exact integer aggregates
 * and answers rank queries — the p50/p99 the perf trajectory
 * records. Note the differing bucket conventions (bit_width here,
 * floor-log2 there) before touching either.
 */
class LatencyHistogram
{
  public:
    void add(std::uint64_t ns);

    std::uint64_t count() const { return mCount; }
    std::uint64_t totalNs() const { return mTotal; }
    std::uint64_t minNs() const { return mCount ? mMin : 0; }
    std::uint64_t maxNs() const { return mCount ? mMax : 0; }
    double meanNs() const;

    /**
     * Approximate quantile @p q in [0, 1]: 0.5 = p50, 0.99 = p99.
     * Returns 0 when no samples were recorded.
     */
    std::uint64_t quantileNs(double q) const;

    /** Count in bucket @p b (see class comment); b in [0, 64]. */
    std::uint64_t bucketCount(int b) const;

  private:
    std::array<std::uint64_t, 65> mBuckets{};
    std::uint64_t mCount = 0;
    std::uint64_t mTotal = 0;
    std::uint64_t mMin = 0;
    std::uint64_t mMax = 0;
};

} // namespace gmlake

#endif // GMLAKE_SUPPORT_STOPWATCH_HH
