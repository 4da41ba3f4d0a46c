#include "support/histogram.hh"

#include <bit>
#include <sstream>

#include "support/logging.hh"
#include "support/strings.hh"

namespace gmlake
{

void
SizeHistogram::add(std::uint64_t bytes)
{
    const int k = bytes == 0 ? 0 : std::bit_width(bytes) - 1;
    ++mBuckets[static_cast<std::size_t>(k)];
}

std::uint64_t
SizeHistogram::bucketCount(int k) const
{
    GMLAKE_ASSERT(k >= 0 && k < 64, "bucket index out of range");
    return mBuckets[static_cast<std::size_t>(k)];
}

std::string
SizeHistogram::render() const
{
    std::ostringstream oss;
    for (int k = 0; k < 64; ++k) {
        const auto n = mBuckets[static_cast<std::size_t>(k)];
        if (n == 0)
            continue;
        oss << "  [" << formatBytes(1ULL << k) << ", "
            << formatBytes(2ULL << k) << "): " << n << "\n";
    }
    return oss.str();
}

} // namespace gmlake
