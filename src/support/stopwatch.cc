#include "support/stopwatch.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "support/logging.hh"

namespace gmlake
{

std::uint64_t
Stopwatch::nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
LatencyHistogram::add(std::uint64_t ns)
{
    if (mCount == 0) {
        mMin = mMax = ns;
    } else {
        mMin = std::min(mMin, ns);
        mMax = std::max(mMax, ns);
    }
    ++mCount;
    mTotal += ns;
    ++mBuckets[std::bit_width(ns)];
}

double
LatencyHistogram::meanNs() const
{
    return mCount == 0 ? 0.0
                       : static_cast<double>(mTotal) /
                             static_cast<double>(mCount);
}

std::uint64_t
LatencyHistogram::bucketCount(int b) const
{
    GMLAKE_ASSERT(b >= 0 &&
                  b < static_cast<int>(mBuckets.size()),
                  "bucket index out of range: ", b);
    return mBuckets[static_cast<std::size_t>(b)];
}

std::uint64_t
LatencyHistogram::quantileNs(double q) const
{
    if (mCount == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    if (q == 0.0)
        return mMin;
    if (q == 1.0)
        return mMax;
    // Rank of the requested sample (nearest-rank on [0, count-1]).
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(mCount - 1));

    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < mBuckets.size(); ++b) {
        if (mBuckets[b] == 0)
            continue;
        if (seen + mBuckets[b] <= rank) {
            seen += mBuckets[b];
            continue;
        }
        // The rank falls in bucket b = [2^(b-1), 2^b); interpolate
        // linearly by the rank's position inside the bucket.
        const double lo =
            b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (b - 1));
        const double hi = b == 0
                              ? 1.0
                              : static_cast<double>(
                                    b >= 64 ? ~std::uint64_t{0}
                                            : std::uint64_t{1} << b);
        const double frac =
            static_cast<double>(rank - seen) /
            static_cast<double>(mBuckets[b]);
        const double value = lo + frac * (hi - lo);
        const double clamped =
            std::clamp(value, static_cast<double>(mMin),
                       static_cast<double>(mMax));
        return static_cast<std::uint64_t>(clamped);
    }
    return mMax; // unreachable with a consistent count
}

} // namespace gmlake
