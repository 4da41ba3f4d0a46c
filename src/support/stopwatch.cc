#include "support/stopwatch.hh"

#include <chrono>

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

} // namespace gmlake
