/**
 * @file
 * Virtual address space of the simulated GPU.
 *
 * Reservations model cuMemAddressReserve / cuMemAddressFree. The VA
 * space is practically unbounded (49 bits on real devices); we still
 * enforce a configurable ceiling so leaks are caught by tests.
 */

#ifndef GMLAKE_VMM_VA_SPACE_HH
#define GMLAKE_VMM_VA_SPACE_HH

#include <map>
#include <vector>

#include "support/expected.hh"
#include "support/types.hh"
#include "vmm/extent_map.hh"

namespace gmlake::vmm
{

class VaSpace
{
  public:
    /** @param limit total reservable bytes (default 256 TiB). */
    explicit VaSpace(Bytes limit = Bytes{1} << 48);

    /**
     * Reserve a VA range of @p size bytes aligned to kGranularity.
     * Freed ranges are reused first-fit to keep addresses stable.
     */
    Expected<VirtAddr> reserve(Bytes size);

    /** Free a reservation previously returned by reserve(). */
    Status free(VirtAddr addr);

    /**
     * Locate the reservation containing [addr, addr+size).
     * Fails with notReserved when the range is outside or straddles.
     */
    struct Reservation
    {
        VirtAddr base;
        Bytes size;
    };
    Expected<Reservation> containing(VirtAddr addr, Bytes size) const;

    Bytes reservedBytes() const { return mReservedBytes; }
    Bytes peakReservedBytes() const { return mPeakReservedBytes; }
    std::size_t reservationCount() const { return mLive.size(); }

    /**
     * Checkpoint of the full space: bump pointer, live reservations,
     * and the released holes — addresses reserve() issues after a
     * restore are identical to the checkpointed space's.
     */
    struct State
    {
        VirtAddr bump = 0;
        Bytes reservedBytes = 0;
        Bytes peakReservedBytes = 0;
        std::map<VirtAddr, Bytes> live;
        std::vector<FreeExtentMap::Extent> holes;
    };

    State saveState() const;
    void restoreState(const State &state);

  private:
    Bytes mLimit;
    VirtAddr mBump;
    Bytes mReservedBytes = 0;
    Bytes mPeakReservedBytes = 0;
    /** Live reservations: base -> size. */
    std::map<VirtAddr, Bytes> mLive;
    /**
     * Free holes from released reservations: first-fit reuse in
     * O(log holes) via the shared extent map (identical placement
     * to the linear scan it replaced).
     */
    FreeExtentMap mHoles;
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_VA_SPACE_HH
