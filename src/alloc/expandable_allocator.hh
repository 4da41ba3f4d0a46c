/**
 * @file
 * Expandable-segments allocator: the design PyTorch shipped after
 * GMLake demonstrated VMM-based defragmentation
 * (`PYTORCH_CUDA_ALLOC_CONF=expandable_segments:True`).
 *
 * Instead of many fixed-size cudaMalloc segments, each stream owns
 * ONE segment with a huge reserved virtual address range. Physical
 * 2 MB chunks are mapped at the tail as the segment grows and
 * unmapped when the tail is free, so all block splitting and
 * coalescing happens inside a single contiguous address range: a
 * freed region always coalesces with its neighbours, and any large
 * request can be served at the tail by mapping fresh chunks. A
 * request only ever scans its own stream's segment, so every gap it
 * sees was freed on its stream and is reusable at once: no
 * cross-stream event lag applies.
 *
 * Compared with GMLake: both use the driver VMM API and uniform
 * chunks, but expandable segments cannot re-use *interior* holes for
 * a larger request (the hole's VA is fixed); GMLake's stitching maps
 * the same physical chunks under a new contiguous VA instead. The
 * comparison bench quantifies the difference.
 */

#ifndef GMLAKE_ALLOC_EXPANDABLE_ALLOCATOR_HH
#define GMLAKE_ALLOC_EXPANDABLE_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hh"
#include "vmm/device.hh"

namespace gmlake::alloc
{

class ExpandableSegmentsAllocator : public Allocator
{
  public:
    explicit ExpandableSegmentsAllocator(vmm::Device &device);
    ~ExpandableSegmentsAllocator() override;

    using Allocator::allocate;
    Expected<Allocation> allocate(Bytes size,
                                  StreamId stream) override;
    Status deallocate(AllocId id) override;
    void streamSynchronize(StreamId stream) override;
    void deviceSynchronize() override;
    /**
     * Trim every segment's free tail, then free the VA reservation
     * of each segment left with no live block and nothing mapped.
     */
    void emptyCache() override;
    const AllocatorStats &stats() const override { return mStats; }
    std::string name() const override { return "expandable"; }
    MemorySnapshot snapshot() const override;

    std::size_t segmentCount() const { return mSegments.size(); }
    /** Chunk map/unmap operations performed (growth/trim traffic). */
    std::uint64_t chunkMaps() const { return mChunkMaps; }
    std::uint64_t chunkUnmaps() const { return mChunkUnmaps; }

    Checkpoint saveState() const override;
    void restoreState(const Checkpoint &checkpoint) override;

    /** Runs checkConsistency(). */
    void auditInvariants() const override { checkConsistency(); }

    /** Internal invariant check used by tests; panics on violation. */
    void checkConsistency() const;

  private:
    struct State;

    struct Segment
    {
        VirtAddr base = kNullAddr;
        Bytes vaSize = 0;
        /** Bytes of the range currently backed by mapped chunks. */
        Bytes mapped = 0;
        StreamId stream = kDefaultStream;
        std::vector<PhysHandle> chunks;
        /** Free gaps inside [0, mapped): offset -> size. */
        std::map<Bytes, Bytes> free;
        /** Live blocks: offset -> (size, id). */
        std::map<Bytes, std::pair<Bytes, AllocId>> live;
    };

    vmm::Device &mDevice;
    AllocatorStats mStats;
    AllocId mNextId = 1;
    std::uint64_t mChunkMaps = 0;
    std::uint64_t mChunkUnmaps = 0;

    std::vector<Segment> mSegments;
    /** id -> (segment index, offset). */
    std::unordered_map<AllocId, std::pair<std::size_t, Bytes>> mLive;

    Segment &segmentFor(StreamId stream);

    /** Map chunks so the segment covers at least @p upTo bytes. */
    Status growMapping(Segment &segment, Bytes upTo);

    /** Unmap the free tail of @p segment down to its last live byte. */
    void trimTail(Segment &segment);

    /**
     * Unmap and release @p segment's chunks from offset @p keep (a
     * chunk multiple) to its mapped end, last chunk first.
     */
    void unmapFrom(Segment &segment, Bytes keep);

    /** Place @p size at @p offset (which must be a free gap). */
    VirtAddr place(std::size_t segIndex, Bytes offset, Bytes size,
                   AllocId id);

    static void insertFree(Segment &segment, Bytes offset, Bytes size);
};

} // namespace gmlake::alloc

#endif // GMLAKE_ALLOC_EXPANDABLE_ALLOCATOR_HH
