#include "core/best_fit.hh"

#include <algorithm>

namespace gmlake::core
{

namespace
{

/** One size-list entry, carrying its original index. */
struct SizedEntry
{
    Bytes size = 0;
    std::size_t index = 0;
};

/**
 * Adapter giving a descending size list the pool interface
 * bestFitOverPools needs (pointer-like iteration + lower_bound).
 */
class SizeListPool
{
  public:
    SizeListPool(const std::vector<Bytes> &sizes, const char *what)
    {
        mEntries.reserve(sizes.size());
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            GMLAKE_ASSERT(i == 0 || sizes[i] <= sizes[i - 1],
                          what, " sizes must be sorted descending");
            mEntries.push_back(SizedEntry{sizes[i], i});
        }
        mRefs.reserve(mEntries.size());
        for (const SizedEntry &e : mEntries)
            mRefs.push_back(&e);
    }

    using value_type = const SizedEntry *;

    auto begin() const { return mRefs.begin(); }
    auto end() const { return mRefs.end(); }

    /** First entry whose size is <= @p size (descending order). */
    auto
    lower_bound(Bytes size) const
    {
        return std::lower_bound(
            mRefs.begin(), mRefs.end(), size,
            [](const SizedEntry *e, Bytes b) { return e->size > b; });
    }

    /** First entry of exactly @p size (the lowest index), or null. */
    const SizedEntry *
    exact(Bytes size) const
    {
        const auto it = lower_bound(size);
        return it != end() && (*it)->size == size ? *it : nullptr;
    }

  private:
    std::vector<SizedEntry> mEntries;
    std::vector<const SizedEntry *> mRefs;
};

} // namespace

FitResult
bestFit(Bytes bSize, const std::vector<Bytes> &sBlockSizes,
        const std::vector<Bytes> &pBlockSizes, Bytes fragLimit)
{
    const SizeListPool sPool(sBlockSizes, "sBlock");
    const SizeListPool pPool(pBlockSizes, "pBlock");

    // S1: exact match, the only state allowed to return an sBlock
    // (Algorithm 1, lines 2-4); an sBlock first, then a pBlock.
    FitResult result;
    if (const SizedEntry *s = sPool.exact(bSize)) {
        result.state = FitState::exactMatch;
        result.useSBlock = true;
        result.sIndex = s->index;
        result.candidateBytes = bSize;
        return result;
    }
    if (const SizedEntry *p = pPool.exact(bSize)) {
        result.state = FitState::exactMatch;
        result.pIndices.push_back(p->index);
        result.candidateBytes = bSize;
        return result;
    }

    std::vector<const SizedEntry *> candidates;
    const auto fit = bestFitOverPools(
        bSize, pPool, fragLimit, [](const SizedEntry *) { return true; },
        candidates);
    result.state = fit.state;
    result.candidateBytes = fit.candidateBytes;
    result.pIndices.reserve(candidates.size());
    for (const SizedEntry *e : candidates)
        result.pIndices.push_back(e->index);
    return result;
}

} // namespace gmlake::core
