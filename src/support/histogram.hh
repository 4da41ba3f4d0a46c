/**
 * @file
 * A log2-bucketed size histogram. Used to characterize allocation
 * request streams (Fig 5).
 */

#ifndef GMLAKE_SUPPORT_HISTOGRAM_HH
#define GMLAKE_SUPPORT_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <string>

namespace gmlake
{

/** Histogram over power-of-two byte buckets: [2^k, 2^{k+1}). */
class SizeHistogram
{
  public:
    void add(std::uint64_t bytes);

    /** Count in bucket [2^k, 2^{k+1}); k up to 63. */
    std::uint64_t bucketCount(int k) const;

    /** Multi-line ASCII rendering, one row per non-empty bucket. */
    std::string render() const;

  private:
    std::array<std::uint64_t, 64> mBuckets{};
};

} // namespace gmlake

#endif // GMLAKE_SUPPORT_HISTOGRAM_HH
