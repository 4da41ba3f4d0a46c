/**
 * @file
 * Address-ordered free-extent map with a size augmentation: the
 * shared "holes" structure of the physical memory manager and the VA
 * space.
 *
 * Extents are disjoint [base, base+size) ranges keyed by base. The
 * tree is a treap whose node priorities are a deterministic hash of
 * the base at insertion time (shrinkFront() moves a node's base
 * without rehashing), so the shape is a pure function of the
 * operation sequence — never of pointer values or platform — and
 * every query answer is determined by the extent *set* alone. Each
 * node carries the maximum extent size of its subtree, which buys:
 *
 *  - firstFit(n): the *lowest-base* extent with size >= n in
 *    O(log n) — bit-identical placement to a linear first-fit scan
 *    over an address-sorted hole map, without the O(holes) walk;
 *  - largest(): the biggest free extent in O(1), so out-of-memory
 *    diagnostics cost nothing on the success path;
 *  - nextFit(after, n): resume a first-fit search past a rejected
 *    candidate (alignment-constrained callers).
 *
 * Nodes live in a slab vector with an index freelist: steady-state
 * insert/erase churn performs no heap allocation.
 */

#ifndef GMLAKE_VMM_EXTENT_MAP_HH
#define GMLAKE_VMM_EXTENT_MAP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "support/types.hh"

namespace gmlake::vmm
{

class FreeExtentMap
{
  public:
    struct Extent
    {
        Bytes base = 0;
        Bytes size = 0;
    };

    /** Insert a new extent; must not overlap or abut-coalesce. */
    void insert(Bytes base, Bytes size);

    /** Which neighbours an insertCoalescing() merged into. */
    struct Merged
    {
        bool prev = false;
        bool next = false;
    };

    /**
     * Insert an extent, merging with an adjacent predecessor and/or
     * successor (the release path of an allocator).
     */
    Merged insertCoalescing(Bytes base, Bytes size);

    /** Remove the extent based at @p base; false when absent. */
    bool erase(Bytes base);

    /**
     * Carve @p by bytes off the front of the extent based at
     * @p base (which must exist and be strictly larger than @p by):
     * [base, base+size) becomes [base+by, base+size).
     */
    void shrinkFront(Bytes base, Bytes by);

    /** Lowest-base extent with size >= @p minSize. */
    std::optional<Extent> firstFit(Bytes minSize) const;

    /**
     * Lowest-base extent with base > @p afterBase and
     * size >= @p minSize: continues a firstFit() search whose
     * candidate was rejected by an external constraint.
     */
    std::optional<Extent> nextFit(Bytes afterBase,
                                  Bytes minSize) const;

    /** Size of the largest extent; 0 when empty. */
    Bytes
    largest() const
    {
        return mRoot == kNil ? 0 : mNodes[mRoot].maxSize;
    }

    std::size_t count() const { return mCount; }
    Bytes totalBytes() const { return mTotal; }
    bool empty() const { return mCount == 0; }

    /** All extents in base order (diagnostics and tests). */
    std::vector<Extent> extents() const;

    /**
     * Drop every extent. With insert() this rebuilds a map from a
     * captured extents() list; the rebuilt tree may have a different
     * shape (priorities rehash from the current bases), but every
     * query answer is determined by the extent set alone, so the
     * rebuild is decision-identical.
     */
    void
    clear()
    {
        mNodes.clear();
        mFreeNodes.clear();
        mRoot = kNil;
        mCount = 0;
        mTotal = 0;
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Node
    {
        Bytes base = 0;
        Bytes size = 0;
        Bytes maxSize = 0;
        std::uint64_t priority = 0;
        std::uint32_t left = kNil;
        std::uint32_t right = kNil;
    };

    std::vector<Node> mNodes;
    std::vector<std::uint32_t> mFreeNodes;
    std::uint32_t mRoot = kNil;
    std::size_t mCount = 0;
    Bytes mTotal = 0;

    std::uint32_t allocNode(Bytes base, Bytes size);
    void freeNode(std::uint32_t n);
    void update(std::uint32_t n);
    std::uint32_t rotateLeft(std::uint32_t n);
    std::uint32_t rotateRight(std::uint32_t n);
    std::uint32_t insertRec(std::uint32_t t, std::uint32_t n);
    std::uint32_t eraseRec(std::uint32_t t, Bytes base, bool &found);
    std::uint32_t mergeNodes(std::uint32_t l, std::uint32_t r);
    void shrinkRec(std::uint32_t t, Bytes base, Bytes by);
    std::uint32_t nextFitRec(std::uint32_t t, Bytes afterBase,
                             Bytes minSize) const;

    /** Greatest extent with base < @p base, if any. */
    std::optional<Extent> predecessor(Bytes base) const;
    /** Least extent with base > @p base, if any. */
    std::optional<Extent> successor(Bytes base) const;
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_EXTENT_MAP_HH
