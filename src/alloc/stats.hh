/**
 * @file
 * Allocator accounting shared by every allocator implementation.
 *
 * Terminology follows the paper (Section 5.1):
 *  - active memory: bytes currently assigned to live tensors
 *  - reserved memory: bytes held from the device (pool segments or
 *    physical chunks), whether or not they are assigned
 *  - utilization ratio: peak active / peak reserved
 *  - fragmentation ratio: 1 - utilization ratio
 */

#ifndef GMLAKE_ALLOC_STATS_HH
#define GMLAKE_ALLOC_STATS_HH

#include <algorithm>
#include <cstdint>

#include "support/types.hh"

namespace gmlake::alloc
{

class AllocatorStats
{
  public:
    void
    onAllocate(Bytes active)
    {
        ++mAllocCount;
        mActive += active;
        mPeakActive = std::max(mPeakActive, mActive);
    }

    void
    onDeallocate(Bytes active)
    {
        ++mFreeCount;
        mActive -= active;
    }

    void
    onReserve(Bytes reserved)
    {
        mReserved += reserved;
        mPeakReserved = std::max(mPeakReserved, mReserved);
    }

    void onRelease(Bytes reserved) { mReserved -= reserved; }

    Bytes activeBytes() const { return mActive; }
    Bytes reservedBytes() const { return mReserved; }
    Bytes peakActiveBytes() const { return mPeakActive; }
    Bytes peakReservedBytes() const { return mPeakReserved; }
    std::uint64_t allocCount() const { return mAllocCount; }
    std::uint64_t freeCount() const { return mFreeCount; }

    /** Peak active / peak reserved; 1.0 when nothing was reserved. */
    double
    utilizationRatio() const
    {
        const Bytes peakReserved = peakReservedBytes();
        if (peakReserved == 0)
            return 1.0;
        return static_cast<double>(peakActiveBytes()) /
               static_cast<double>(peakReserved);
    }

    /** The paper's fragmentation metric: 1 - utilization. */
    double fragmentationRatio() const { return 1.0 - utilizationRatio(); }

    /** Plain-value copy of every counter, for checkpoints. */
    struct Snapshot
    {
        Bytes active = 0;
        Bytes reserved = 0;
        Bytes peakActive = 0;
        Bytes peakReserved = 0;
        std::uint64_t allocCount = 0;
        std::uint64_t freeCount = 0;
    };

    Snapshot
    capture() const
    {
        return Snapshot{mActive,      mReserved,   mPeakActive,
                        mPeakReserved, mAllocCount, mFreeCount};
    }

    void
    restore(const Snapshot &snap)
    {
        mActive = snap.active;
        mReserved = snap.reserved;
        mPeakActive = snap.peakActive;
        mPeakReserved = snap.peakReserved;
        mAllocCount = snap.allocCount;
        mFreeCount = snap.freeCount;
    }

  private:
    Bytes mActive = 0;
    Bytes mReserved = 0;
    Bytes mPeakActive = 0;
    Bytes mPeakReserved = 0;
    std::uint64_t mAllocCount = 0;
    std::uint64_t mFreeCount = 0;
};

} // namespace gmlake::alloc

#endif // GMLAKE_ALLOC_STATS_HH
