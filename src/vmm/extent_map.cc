#include "vmm/extent_map.hh"

#include <algorithm>

#include "support/logging.hh"

namespace gmlake::vmm
{

namespace
{

/**
 * splitmix64 of the extent base: a deterministic treap priority, so
 * the tree shape depends only on the extent set (never on insertion
 * order, pointers, or platform).
 */
std::uint64_t
mixPriority(Bytes base)
{
    std::uint64_t z = static_cast<std::uint64_t>(base) +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint32_t
FreeExtentMap::allocNode(Bytes base, Bytes size)
{
    std::uint32_t n;
    if (!mFreeNodes.empty()) {
        n = mFreeNodes.back();
        mFreeNodes.pop_back();
    } else {
        n = static_cast<std::uint32_t>(mNodes.size());
        mNodes.emplace_back();
    }
    Node &node = mNodes[n];
    node.base = base;
    node.size = size;
    node.maxSize = size;
    node.priority = mixPriority(base);
    node.left = kNil;
    node.right = kNil;
    return n;
}

void
FreeExtentMap::freeNode(std::uint32_t n)
{
    mFreeNodes.push_back(n);
}

void
FreeExtentMap::update(std::uint32_t n)
{
    Node &node = mNodes[n];
    Bytes m = node.size;
    if (node.left != kNil)
        m = std::max(m, mNodes[node.left].maxSize);
    if (node.right != kNil)
        m = std::max(m, mNodes[node.right].maxSize);
    node.maxSize = m;
}

std::uint32_t
FreeExtentMap::rotateLeft(std::uint32_t n)
{
    const std::uint32_t r = mNodes[n].right;
    mNodes[n].right = mNodes[r].left;
    mNodes[r].left = n;
    update(n);
    update(r);
    return r;
}

std::uint32_t
FreeExtentMap::rotateRight(std::uint32_t n)
{
    const std::uint32_t l = mNodes[n].left;
    mNodes[n].left = mNodes[l].right;
    mNodes[l].right = n;
    update(n);
    update(l);
    return l;
}

std::uint32_t
FreeExtentMap::insertRec(std::uint32_t t, std::uint32_t n)
{
    if (t == kNil)
        return n;
    if (mNodes[n].base < mNodes[t].base) {
        mNodes[t].left = insertRec(mNodes[t].left, n);
        if (mNodes[mNodes[t].left].priority > mNodes[t].priority)
            return rotateRight(t);
    } else {
        GMLAKE_ASSERT(mNodes[n].base != mNodes[t].base,
                      "duplicate extent base");
        mNodes[t].right = insertRec(mNodes[t].right, n);
        if (mNodes[mNodes[t].right].priority > mNodes[t].priority)
            return rotateLeft(t);
    }
    update(t);
    return t;
}

void
FreeExtentMap::insert(Bytes base, Bytes size)
{
    GMLAKE_ASSERT(size > 0, "zero-size extent");
    const std::uint32_t n = allocNode(base, size);
    mRoot = insertRec(mRoot, n);
    ++mCount;
    mTotal += size;
}

std::uint32_t
FreeExtentMap::mergeNodes(std::uint32_t l, std::uint32_t r)
{
    if (l == kNil)
        return r;
    if (r == kNil)
        return l;
    if (mNodes[l].priority > mNodes[r].priority) {
        mNodes[l].right = mergeNodes(mNodes[l].right, r);
        update(l);
        return l;
    }
    mNodes[r].left = mergeNodes(l, mNodes[r].left);
    update(r);
    return r;
}

std::uint32_t
FreeExtentMap::eraseRec(std::uint32_t t, Bytes base, bool &found)
{
    if (t == kNil)
        return kNil;
    if (base < mNodes[t].base) {
        mNodes[t].left = eraseRec(mNodes[t].left, base, found);
    } else if (base > mNodes[t].base) {
        mNodes[t].right = eraseRec(mNodes[t].right, base, found);
    } else {
        found = true;
        const std::uint32_t merged =
            mergeNodes(mNodes[t].left, mNodes[t].right);
        freeNode(t);
        return merged;
    }
    update(t);
    return t;
}

bool
FreeExtentMap::erase(Bytes base)
{
    // Look up the size first: eraseRec frees the node.
    Bytes size = 0;
    {
        std::uint32_t t = mRoot;
        while (t != kNil) {
            if (base < mNodes[t].base) {
                t = mNodes[t].left;
            } else if (base > mNodes[t].base) {
                t = mNodes[t].right;
            } else {
                size = mNodes[t].size;
                break;
            }
        }
        if (t == kNil)
            return false;
    }
    bool found = false;
    mRoot = eraseRec(mRoot, base, found);
    GMLAKE_ASSERT(found, "extent vanished during erase");
    --mCount;
    mTotal -= size;
    return true;
}

void
FreeExtentMap::shrinkRec(std::uint32_t t, Bytes base, Bytes by)
{
    GMLAKE_ASSERT(t != kNil, "shrink of an unknown extent");
    if (base < mNodes[t].base) {
        shrinkRec(mNodes[t].left, base, by);
    } else if (base > mNodes[t].base) {
        shrinkRec(mNodes[t].right, base, by);
    } else {
        GMLAKE_ASSERT(by < mNodes[t].size,
                      "shrink must leave a non-empty extent");
        // Moving the base forward keeps the BST order: the new base
        // stays below the old extent's end, and every successor
        // starts at or after it.
        mNodes[t].base += by;
        mNodes[t].size -= by;
    }
    update(t);
}

void
FreeExtentMap::shrinkFront(Bytes base, Bytes by)
{
    shrinkRec(mRoot, base, by);
    mTotal -= by;
}

std::optional<FreeExtentMap::Extent>
FreeExtentMap::firstFit(Bytes minSize) const
{
    std::uint32_t t = mRoot;
    if (t == kNil || mNodes[t].maxSize < minSize)
        return std::nullopt;
    // Invariant: the subtree at t contains a fitting extent; prefer
    // the leftmost (lowest base).
    while (true) {
        const Node &node = mNodes[t];
        if (node.left != kNil &&
            mNodes[node.left].maxSize >= minSize) {
            t = node.left;
            continue;
        }
        if (node.size >= minSize)
            return Extent{node.base, node.size};
        t = node.right;
        GMLAKE_ASSERT(t != kNil && mNodes[t].maxSize >= minSize,
                      "size augmentation out of sync");
    }
}

std::uint32_t
FreeExtentMap::nextFitRec(std::uint32_t t, Bytes afterBase,
                          Bytes minSize) const
{
    if (t == kNil || mNodes[t].maxSize < minSize)
        return kNil;
    if (mNodes[t].base <= afterBase)
        return nextFitRec(mNodes[t].right, afterBase, minSize);
    const std::uint32_t l =
        nextFitRec(mNodes[t].left, afterBase, minSize);
    if (l != kNil)
        return l;
    if (mNodes[t].size >= minSize)
        return t;
    return nextFitRec(mNodes[t].right, afterBase, minSize);
}

std::optional<FreeExtentMap::Extent>
FreeExtentMap::nextFit(Bytes afterBase, Bytes minSize) const
{
    const std::uint32_t t = nextFitRec(mRoot, afterBase, minSize);
    if (t == kNil)
        return std::nullopt;
    return Extent{mNodes[t].base, mNodes[t].size};
}

std::optional<FreeExtentMap::Extent>
FreeExtentMap::predecessor(Bytes base) const
{
    std::uint32_t t = mRoot;
    std::uint32_t best = kNil;
    while (t != kNil) {
        if (mNodes[t].base < base) {
            best = t;
            t = mNodes[t].right;
        } else {
            t = mNodes[t].left;
        }
    }
    if (best == kNil)
        return std::nullopt;
    return Extent{mNodes[best].base, mNodes[best].size};
}

std::optional<FreeExtentMap::Extent>
FreeExtentMap::successor(Bytes base) const
{
    std::uint32_t t = mRoot;
    std::uint32_t best = kNil;
    while (t != kNil) {
        if (mNodes[t].base > base) {
            best = t;
            t = mNodes[t].left;
        } else {
            t = mNodes[t].right;
        }
    }
    if (best == kNil)
        return std::nullopt;
    return Extent{mNodes[best].base, mNodes[best].size};
}

FreeExtentMap::Merged
FreeExtentMap::insertCoalescing(Bytes base, Bytes size)
{
    GMLAKE_ASSERT(size > 0, "zero-size extent");
    Merged merged;
    const auto prev = predecessor(base);
    if (prev && prev->base + prev->size == base) {
        erase(prev->base);
        base = prev->base;
        size += prev->size;
        merged.prev = true;
    }
    const auto next = successor(base);
    if (next && base + size == next->base) {
        erase(next->base);
        size += next->size;
        merged.next = true;
    }
    insert(base, size);
    return merged;
}

std::vector<FreeExtentMap::Extent>
FreeExtentMap::extents() const
{
    std::vector<Extent> out;
    out.reserve(mCount);
    // Iterative in-order traversal (base order).
    std::vector<std::uint32_t> stack;
    std::uint32_t t = mRoot;
    while (t != kNil || !stack.empty()) {
        while (t != kNil) {
            stack.push_back(t);
            t = mNodes[t].left;
        }
        t = stack.back();
        stack.pop_back();
        out.push_back(Extent{mNodes[t].base, mNodes[t].size});
        t = mNodes[t].right;
    }
    return out;
}

} // namespace gmlake::vmm
