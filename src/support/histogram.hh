/**
 * @file
 * Streaming summary statistics and a log2-bucketed size histogram.
 * Used to characterize allocation request streams (Fig 5).
 */

#ifndef GMLAKE_SUPPORT_HISTOGRAM_HH
#define GMLAKE_SUPPORT_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gmlake
{

/** Count / min / max / mean / variance without storing samples. */
class SummaryStats
{
  public:
    void add(double v);

    std::uint64_t count() const { return mCount; }
    double min() const;
    double max() const;
    double mean() const;
    double sum() const { return mSum; }
    /** Population standard deviation. */
    double stddev() const;

  private:
    std::uint64_t mCount = 0;
    double mSum = 0.0;
    double mSumSq = 0.0;
    double mMin = 0.0;
    double mMax = 0.0;
};

/** Histogram over power-of-two byte buckets: [2^k, 2^{k+1}). */
class SizeHistogram
{
  public:
    void add(std::uint64_t bytes);

    std::uint64_t count() const { return mStats.count(); }
    std::uint64_t totalBytes() const
    {
        return static_cast<std::uint64_t>(mStats.sum());
    }

    /** Count in bucket [2^k, 2^{k+1}); k up to 63. */
    std::uint64_t bucketCount(int k) const;

    /** Multi-line ASCII rendering, one row per non-empty bucket. */
    std::string render() const;

  private:
    SummaryStats mStats;
    std::vector<std::uint64_t> mBuckets = std::vector<std::uint64_t>(64, 0);
};

} // namespace gmlake

#endif // GMLAKE_SUPPORT_HISTOGRAM_HH
