/**
 * @file
 * Compaction-based defragmentation baseline (paper Section 6,
 * "Memory Defragmentation" related work): when no cached hole fits a
 * request, live blocks are slid together and migrated across slabs
 * so the free space coalesces — at the cost of device-to-device
 * copies and a stop-the-world synchronization.
 *
 * This is the moving-collector alternative GMLake argues against:
 * it reaches similar utilization but pays data movement on every
 * defragmentation, and in a real DL framework it is not even
 * transparently deployable (tensors hold raw device pointers that a
 * move would invalidate). The comparison bench quantifies the
 * overhead difference against virtual memory stitching.
 */

#ifndef GMLAKE_ALLOC_COMPACTING_ALLOCATOR_HH
#define GMLAKE_ALLOC_COMPACTING_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hh"
#include "vmm/device.hh"

namespace gmlake::alloc
{

struct CompactingConfig
{
    /** Slab growth unit obtained from the device. */
    Bytes slabSize = Bytes{1} * 1024 * 1024 * 1024;
};

class CompactingAllocator : public Allocator
{
  public:
    CompactingAllocator(vmm::Device &device,
                        CompactingConfig config = {});

    using Allocator::allocate;
    Expected<Allocation> allocate(Bytes size,
                                  StreamId stream) override;
    Status deallocate(AllocId id) override;
    void emptyCache() override;
    const AllocatorStats &stats() const override { return mStats; }
    std::string name() const override { return "compacting"; }

    /** Number of compaction cycles performed. */
    std::uint64_t compactions() const { return mCompactions; }
    /** Total bytes moved by compactions. */
    Bytes bytesMoved() const { return mBytesMoved; }
    std::size_t slabCount() const { return mSlabs.size(); }

    Checkpoint saveState() const override;
    void restoreState(const Checkpoint &checkpoint) override;

    /** Internal invariant check used by tests; panics on violation. */
    void checkConsistency() const;

  private:
    struct State;

    struct Slab
    {
        VirtAddr base = kNullAddr;
        Bytes size = 0;
        /** Live blocks: offset within slab -> (size, alloc id). */
        std::map<Bytes, std::pair<Bytes, AllocId>> blocks;

        Bytes usedBytes() const;
    };

    vmm::Device &mDevice;
    CompactingConfig mConfig;
    AllocatorStats mStats;
    AllocId mNextId = 1;
    std::uint64_t mCompactions = 0;
    Bytes mBytesMoved = 0;

    std::vector<Slab> mSlabs;
    /** alloc id -> (slab index, offset). */
    std::unordered_map<AllocId, std::pair<std::size_t, Bytes>> mLive;

    /** First-fit into existing slab gaps; kNullAddr when none fit. */
    bool placeInSlab(std::size_t slabIndex, Bytes size, AllocId id,
                     VirtAddr &outAddr);

    /** Slide blocks down within and across slabs; charges copies. */
    void compact();

    Bytes totalFree() const;
};

} // namespace gmlake::alloc

#endif // GMLAKE_ALLOC_COMPACTING_ALLOCATOR_HH
