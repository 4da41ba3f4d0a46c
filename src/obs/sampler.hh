/**
 * @file
 * Periodic memory-state sampler feeding counter tracks.
 *
 * The engine owns the cadence: inside its event loop (and only when
 * a recorder is active) it checks due(now) against simulated time
 * and, when a sample is due, gathers the inputs itself — per-tenant
 * live bytes from its cursors, allocator active/reserved from its
 * stats, and device fragmentation from Device::fragStats — so
 * sampling never advances simulated time.
 */

#ifndef GMLAKE_OBS_SAMPLER_HH
#define GMLAKE_OBS_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.hh"

namespace gmlake::obs
{

/** Simulated-time cadence between samples (1 ms). */
inline constexpr std::uint64_t kSamplePeriodNs = 1'000'000;

/** One snapshot of memory state at a simulated instant. */
struct MemorySample
{
    std::uint64_t activeBytes = 0;    //!< allocator live
    std::uint64_t reservedBytes = 0;  //!< allocator reserved VA
    std::uint64_t inUseBytes = 0;     //!< device physical in use
    std::uint64_t largestHole = 0;    //!< largest free extent
    std::uint64_t holeCount = 0;
    std::uint64_t freeBytes = 0;      //!< device capacity - inUse
    /** Power-of-two free-extent histogram: bucket i counts holes of
     *  size in [2^i, 2^(i+1)). */
    std::vector<std::uint64_t> holeBuckets;
    /** Parallel to the sampler's tenants. */
    std::vector<std::uint64_t> tenantLiveBytes;
};

class MemorySampler
{
  public:
    /** Interns the counter tracks against the recorder's current
     *  run, one live-bytes track per name in @p tenants; construct
     *  one sampler per engine run. */
    MemorySampler(Recorder &recorder,
                  const std::vector<std::string> &tenants);

    bool due(std::uint64_t now) const { return now >= mNext; }

    /** Emit counter events for @p s at @p now; advances the cadence. */
    void record(std::uint64_t now, const MemorySample &s);

  private:
    Recorder &mRecorder;
    std::uint64_t mNext = 0;
    std::uint32_t mTrackActive;
    std::uint32_t mTrackReserved;
    std::uint32_t mTrackInUse;
    std::uint32_t mTrackLargestHole;
    std::uint32_t mTrackHoleCount;
    std::uint32_t mTrackFrag;
    std::uint32_t mTrackHisto;
    std::vector<std::uint32_t> mTenantTracks;
};

} // namespace gmlake::obs

#endif // GMLAKE_OBS_SAMPLER_HH
