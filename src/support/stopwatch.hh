/**
 * @file
 * Host wall-clock measurement: a monotonic stopwatch.
 *
 * Everything else in the simulator runs on *simulated* time (Tick);
 * a Stopwatch measures how long the simulator itself takes on the
 * host (RunResult::runWallNs and the sweep and chaos walls).
 */

#ifndef GMLAKE_SUPPORT_STOPWATCH_HH
#define GMLAKE_SUPPORT_STOPWATCH_HH

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

} // namespace gmlake

#endif // GMLAKE_SUPPORT_STOPWATCH_HH
