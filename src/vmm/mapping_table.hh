/**
 * @file
 * VA -> physical-handle mapping table (cuMemMap / cuMemUnmap /
 * cuMemSetAccess). One mapping covers exactly one physical handle;
 * a VA byte can be covered by at most one mapping, but one handle may
 * be mapped at several VAs (that is what virtual memory stitching
 * exploits).
 *
 * Storage is extent-based: virtually-adjacent mappings in the same
 * access state coalesce into one *extent* — a single tree node whose
 * per-chunk handles live in a contiguous vector. Stitching a 2 GiB
 * sBlock from 2 MiB chunks therefore costs one tree splice plus 1024
 * vector appends instead of 1024 tree inserts, and unmapping it is
 * one erase. Range queries (mappingsIn / rangeStats / unmap
 * validation) walk O(extents touched), not O(chunks in the table).
 * The chunk-level semantics of the CUDA API are preserved exactly:
 * extents split at chunk boundaries whenever an unmap or setAccess
 * addresses part of one, and it is still an error to split a chunk.
 *
 * Every entry point validates first and only then mutates, so a call
 * that fails — including a whole mapRange() batch — leaves the table
 * (and the handle refcounts) untouched.
 */

#ifndef GMLAKE_VMM_MAPPING_TABLE_HH
#define GMLAKE_VMM_MAPPING_TABLE_HH

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "support/expected.hh"
#include "support/types.hh"
#include "vmm/phys_memory.hh"

namespace gmlake::vmm
{

class MappingTable
{
  public:
    /** One mapped chunk inside an extent. */
    struct Chunk
    {
        PhysHandle handle;
        Bytes size;
    };

    /**
     * A run of virtually-contiguous chunks in one access state.
     * size is the sum of the chunk sizes.
     */
    struct Extent
    {
        Bytes size = 0;
        bool accessible = false;
        std::vector<Chunk> chunks;
    };

    /**
     * Checkpoint of the table (vmm/device.hh Device checkpoints).
     * Handle refcounts are not part of it — they live in the
     * PhysMemory slots, restored alongside.
     */
    struct State
    {
        std::map<VirtAddr, Extent> extents;
        std::size_t chunkCount = 0;
    };

    explicit MappingTable(PhysMemory &phys);

    State saveState() const { return State{mExtents, mChunkCount}; }

    /** Replace the table contents with @p state. */
    void
    restoreState(const State &state)
    {
        mExtents = state.extents;
        mChunkCount = state.chunkCount;
    }

    /**
     * Map @p handle (whole) at @p va — the one-element mapRange().
     * The VA range must be free.
     */
    Status map(VirtAddr va, PhysHandle handle);

    /**
     * Map a batch of (va, handle) pairs, each handle whole at its
     * va. The batch must be sorted by va with disjoint targets; all
     * targets are validated against the table (and each other)
     * before any mapping is installed — on error nothing changes.
     * Consecutive pairs whose ranges abut coalesce into one extent.
     * Resolves each handle once, then runs mapSlots().
     */
    Status mapRange(
        std::span<const std::pair<VirtAddr, PhysHandle>> batch);

    /**
     * mapRange() over handles the caller has already resolved:
     * @p slots[i] is what PhysMemory::slot() returned for
     * batch[i].second (nullptr: unknown or stale). Each entry's size
     * comes from its slot and its mapping reference goes on it, so
     * the table looks no handle up again.
     */
    Status mapSlots(
        std::span<const std::pair<VirtAddr, PhysHandle>> batch,
        std::span<PhysMemory::Slot *const> slots);

    /**
     * Remove all mappings inside [va, va+size). The range boundary
     * must not split a mapping.
     */
    Status unmap(VirtAddr va, Bytes size);

    /** Grant read/write access to every mapping in [va, va+size). */
    Status setAccess(VirtAddr va, Bytes size);

    /** Mappings starting inside [va, va+size), in address order. */
    struct Entry
    {
        VirtAddr va;
        Bytes size;
        PhysHandle handle;
        bool accessible;
    };
    std::vector<Entry> mappingsIn(VirtAddr va, Bytes size) const;
    /** Allocation-free variant: clears and fills @p out. */
    void mappingsIn(VirtAddr va, Bytes size,
                    std::vector<Entry> &out) const;

    /** True when any mapping starts inside [va, va+size). */
    bool hasMappingsIn(VirtAddr va, Bytes size) const;

    /** True when any mapping covers a byte of [va, va+size). */
    bool overlaps(VirtAddr va, Bytes size) const;

    /**
     * Count and total bytes of the mappings starting inside
     * [va, va+size) without materializing them — O(extents touched):
     * an extent that starts at or after va and ends inside the range
     * contributes in O(1); only the extents straddling va or the
     * range end are walked.
     */
    struct RangeStats
    {
        std::size_t chunks = 0;
        Bytes bytes = 0;
    };
    RangeStats rangeStats(VirtAddr va, Bytes size) const;

    /** True when every byte of [va, va+size) is mapped + accessible. */
    bool accessible(VirtAddr va, Bytes size) const;

    /** Physical handle backing the byte at @p va, if mapped. */
    Expected<PhysHandle> translate(VirtAddr va) const;

    /** Number of chunk-level mappings (not extents). */
    std::size_t mappingCount() const { return mChunkCount; }
    /** Number of coalesced extents backing them. */
    std::size_t extentCount() const { return mExtents.size(); }

  private:
    PhysMemory &mPhys;
    /** va -> extent; extents are disjoint, never empty. */
    std::map<VirtAddr, Extent> mExtents;
    std::size_t mChunkCount = 0;

    /**
     * Visit every chunk of @p extent whose start VA lies in
     * [lo, hi), in address order: fn(chunkVa, chunk) returns false
     * to stop. The one encoding of the "mapping starts in range"
     * rule every range query shares.
     */
    template <typename Fn>
    static void
    forEachChunkStartingIn(VirtAddr extentVa, const Extent &extent,
                           VirtAddr lo, VirtAddr hi, Fn &&fn)
    {
        VirtAddr cursor = extentVa;
        for (const Chunk &chunk : extent.chunks) {
            if (cursor >= hi)
                break;
            if (cursor >= lo && !fn(cursor, chunk))
                break;
            cursor += chunk.size;
        }
    }

    /**
     * Chunk index of the boundary at @p va inside @p extent
     * (0..chunks); SIZE_MAX when @p va falls strictly inside a
     * chunk.
     */
    static std::size_t chunkBoundary(VirtAddr extentVa,
                                     const Extent &extent,
                                     VirtAddr va);

    /**
     * Split the extent at @p it at chunk index @p at (must be a
     * proper interior boundary); returns the iterator of the new
     * tail extent.
     */
    std::map<VirtAddr, Extent>::iterator
    splitExtent(std::map<VirtAddr, Extent>::iterator it,
                std::size_t at);

    /**
     * Install one validated (va, handle, size) mapping, coalescing
     * with an adjacent still-assembling extent; returns the extent
     * that received the chunk. An extent this opens reserves room
     * for @p room chunks.
     */
    std::map<VirtAddr, Extent>::iterator
    installChunk(VirtAddr va, PhysHandle handle, Bytes size,
                 std::size_t room);
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_MAPPING_TABLE_HH
