#include "vmm/va_space.hh"

#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"
#include "vmm/phys_memory.hh"

namespace gmlake::vmm
{

namespace
{
/** Device VA space starts well above zero so 0 can stay a null value. */
constexpr VirtAddr kVaBase = 0x7000'0000'0000ULL;
} // namespace

VaSpace::VaSpace(Bytes limit)
    : mLimit(limit), mBump(kVaBase)
{
}

Expected<VirtAddr>
VaSpace::reserve(Bytes size)
{
    if (size == 0)
        return makeError(Errc::invalidValue, "reserve of zero bytes");

    // First-fit over released holes: the extent map yields the
    // lowest-base hole with size >= request in O(log holes);
    // alignment slack can disqualify a candidate, in which case the
    // search resumes behind it (hole bases are granularity-aligned
    // in practice, so the first candidate almost always fits).
    for (auto hole = mHoles.firstFit(size); hole;
         hole = mHoles.nextFit(hole->base, size)) {
        const VirtAddr base = hole->base;
        const Bytes holeSize = hole->size;
        const VirtAddr aligned = roundUp(base, kGranularity);
        const Bytes slack = aligned - base;
        if (holeSize >= slack + size) {
            // Carve [aligned, aligned+size) from the hole.
            mHoles.erase(base);
            if (slack > 0)
                mHoles.insert(base, slack);
            if (holeSize > slack + size)
                mHoles.insert(aligned + size, holeSize - slack - size);
            mLive.emplace(aligned, size);
            mReservedBytes += size;
            if (mReservedBytes > mPeakReservedBytes)
                mPeakReservedBytes = mReservedBytes;
            return aligned;
        }
    }

    const VirtAddr aligned = roundUp(mBump, kGranularity);
    if (aligned + size - kVaBase > mLimit) {
        return makeError(Errc::addressSpaceFull,
                         "VA space limit " + formatBytes(mLimit) +
                         " exhausted");
    }
    if (aligned > mBump)
        mHoles.insert(mBump, aligned - mBump);
    mBump = aligned + size;
    mLive.emplace(aligned, size);
    mReservedBytes += size;
    if (mReservedBytes > mPeakReservedBytes)
        mPeakReservedBytes = mReservedBytes;
    return aligned;
}

Status
VaSpace::free(VirtAddr addr)
{
    auto it = mLive.find(addr);
    if (it == mLive.end())
        return makeError(Errc::invalidValue,
                         "addressFree of a non-reservation base");
    mReservedBytes -= it->second;
    // Return the range to the hole list, merging with neighbours.
    const VirtAddr base = it->first;
    const Bytes size = it->second;
    mLive.erase(it);
    mHoles.insertCoalescing(base, size);
    return Status::success();
}

VaSpace::State
VaSpace::saveState() const
{
    State state;
    state.bump = mBump;
    state.reservedBytes = mReservedBytes;
    state.peakReservedBytes = mPeakReservedBytes;
    state.live = mLive;
    state.holes = mHoles.extents();
    return state;
}

void
VaSpace::restoreState(const State &state)
{
    mBump = state.bump;
    mReservedBytes = state.reservedBytes;
    mPeakReservedBytes = state.peakReservedBytes;
    mLive = state.live;
    mHoles.clear();
    for (const auto &hole : state.holes)
        mHoles.insert(hole.base, hole.size);
}

Expected<VaSpace::Reservation>
VaSpace::containing(VirtAddr addr, Bytes size) const
{
    auto it = mLive.upper_bound(addr);
    if (it == mLive.begin())
        return makeError(Errc::notReserved, "address below reservations");
    --it;
    const VirtAddr base = it->first;
    const Bytes resSize = it->second;
    if (addr < base || addr + size > base + resSize)
        return makeError(Errc::notReserved,
                         "range not inside a single reservation");
    return Reservation{base, resSize};
}

} // namespace gmlake::vmm
