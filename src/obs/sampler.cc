#include "obs/sampler.hh"

namespace gmlake::obs
{

MemorySampler::MemorySampler(Recorder &recorder,
                             const std::vector<std::string> &tenants)
    : mRecorder(recorder),
      mTrackActive(recorder.track("mem.active")),
      mTrackReserved(recorder.track("mem.reserved")),
      mTrackInUse(recorder.track("mem.device_in_use")),
      mTrackLargestHole(recorder.track("frag.largest_hole")),
      mTrackHoleCount(recorder.track("frag.hole_count")),
      mTrackFrag(recorder.track("frag.permille")),
      mTrackHisto(recorder.track("frag.histogram"))
{
    mTenantTracks.reserve(tenants.size());
    for (const std::string &tenant : tenants)
        mTenantTracks.push_back(
            mRecorder.track("tenant:" + tenant + ".live"));
}

void
MemorySampler::record(std::uint64_t now, const MemorySample &s)
{
    mRecorder.counter(mTrackActive, now, s.activeBytes);
    mRecorder.counter(mTrackReserved, now, s.reservedBytes);
    mRecorder.counter(mTrackInUse, now, s.inUseBytes);
    mRecorder.counter(mTrackLargestHole, now, s.largestHole);
    mRecorder.counter(mTrackHoleCount, now, s.holeCount);
    // Fragmentation as used throughout the repo: the share of free
    // physical memory *not* reachable as one contiguous extent.
    const std::uint64_t frag =
        s.freeBytes == 0
            ? 0
            : 1000 - (1000 * s.largestHole) / s.freeBytes;
    mRecorder.counter(mTrackFrag, now, frag);
    for (std::size_t i = 0;
         i < mTenantTracks.size() && i < s.tenantLiveBytes.size();
         ++i)
        mRecorder.counter(mTenantTracks[i], now,
                          s.tenantLiveBytes[i]);
    if (!s.holeBuckets.empty()) {
        Event e;
        e.simTime = now;
        e.a0 = s.holeBuckets.size();
        e.a1 = s.largestHole;
        e.a2 = s.holeCount;
        e.track = mTrackHisto;
        e.name = EvName::holeHistogram;
        e.kind = EventKind::instant;
        e.cat = EventCat::sample;
        mRecorder.emitWithBlob(
            e, s.holeBuckets.data(),
            static_cast<std::uint32_t>(s.holeBuckets.size()));
    }
    mNext = now + kSamplePeriodNs;
}

} // namespace gmlake::obs
