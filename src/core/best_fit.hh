/**
 * @file
 * Algorithm 1 of the paper: the BestFit candidate search.
 *
 * The allocator answers S1 (exact match) from its recency index
 * before it searches, so the pool search (bestFitOverPools) starts at
 * S2 and runs directly over the allocator's sorted pBlock pool:
 * candidates come back as block pointers, the caller provides the
 * candidate vector as reusable scratch, and eligibility is a
 * predicate evaluated during the walk — so a miss costs work
 * proportional to the candidate set, not the pool, and allocates
 * nothing.
 */

#ifndef GMLAKE_CORE_BEST_FIT_HH
#define GMLAKE_CORE_BEST_FIT_HH

#include <cstddef>
#include <vector>

#include "support/logging.hh"
#include "support/types.hh"

namespace gmlake::core
{

/** The four states of Algorithm 1 (plus S5 = OOM at a higher level). */
enum class FitState
{
    exactMatch = 1,     //!< S1: a block of exactly the requested size
    singleBlock = 2,    //!< S2: smallest single pBlock larger than it
    multiBlocks = 3,    //!< S3: several pBlocks whose sum suffices
    insufficient = 4,   //!< S4: even the sum of all candidates is short
};

/**
 * Result of the pool-based search (S2-S4). The pBlock candidates live
 * in the caller-provided scratch vector; only the classification and
 * the candidate total live here.
 */
struct PoolFitResult
{
    FitState state = FitState::insufficient;
    /** Total size of the candidates in the scratch vector. */
    Bytes candidateBytes = 0;
};

/**
 * Run Algorithm 1 past S1 over a sorted pBlock pool.
 *
 * Pool requirements: iteration yields pointer-like handles with a
 * `size` member, in descending size order with a deterministic tie
 * order; `lower_bound(Bytes)` returns the first element whose size is
 * <= the key (the natural heterogeneous lookup of a size-descending
 * comparator). std::set with a transparent descending comparator and
 * the allocator's inactive pools satisfy this directly.
 *
 * The caller answers S1 first: the pool holds no eligible block of
 * exactly @p bSize. S1 is also the only state that may hand out an
 * sBlock, so sBlocks never enter this search.
 *
 * @param bSize requested block size (already chunk-rounded)
 * @param pool inactive pBlocks
 * @param fragLimit pBlocks smaller than this are skipped when
 *        accumulating multi-block candidates (0 disables the limit;
 *        exact-sum swaps are always taken)
 * @param eligible predicate deciding whether a block may serve this
 *        request (stream reuse rules); ineligible blocks are skipped
 *        in place
 * @param candidates caller-owned scratch, cleared on entry; holds
 *        the selected pBlock candidates on return (all states)
 */
template <typename Pool, typename Elig>
PoolFitResult
bestFitOverPools(Bytes bSize, const Pool &pool, Bytes fragLimit,
                 Elig &&eligible,
                 std::vector<typename Pool::value_type> &candidates)
{
    PoolFitResult result;
    candidates.clear();
    const auto firstNotLarger = pool.lower_bound(bSize);

    // Lines 5-15, S2 half: the smallest eligible pBlock that still
    // fits. The forward scan of Algorithm 1 keeps overwriting its
    // single candidate and ends on the last eligible larger-than-
    // request block; walking backward from the partition point finds
    // the same block while only touching the trailing ineligible
    // run.
    for (auto it = firstNotLarger; it != pool.begin();) {
        --it;
        if (eligible(*it)) {
            candidates.push_back(*it);
            result.candidateBytes = (*it)->size;
            result.state = FitState::singleBlock;
            return result;
        }
    }

    // Lines 5-15, S3 half: no single block fits — greedily
    // accumulate smaller blocks until the sum suffices. The
    // fragmentation limit (Section 4.2.3) excludes blocks that
    // stitching must never touch.
    for (auto it = firstNotLarger; it != pool.end(); ++it) {
        const auto p = *it;
        if (!eligible(p))
            continue;
        GMLAKE_ASSERT(p->size < bSize,
                      "exact matches are answered before BestFit");
        if (fragLimit != 0 && p->size < fragLimit)
            continue;
        candidates.push_back(p);
        result.candidateBytes += p->size;
        if (result.candidateBytes >= bSize)
            break;
    }

    // When the greedy set overshoots, try to swap the final
    // candidate for a block that completes the sum exactly (a
    // binary search: the pool is sorted): stitching an exact set
    // avoids the trim split, which would destroy every cached
    // sBlock sharing the trimmed block (and with it the exact-match
    // convergence of Section 4.2.2).
    if (result.candidateBytes > bSize && !candidates.empty()) {
        const Bytes lastSize = candidates.back()->size;
        const Bytes needLast =
            bSize - (result.candidateBytes - lastSize);
        for (auto it = pool.lower_bound(needLast);
             it != pool.end() && (*it)->size == needLast; ++it) {
            if (eligible(*it)) {
                candidates.back() = *it;
                result.candidateBytes = bSize;
                break;
            }
        }
    }

    result.state = result.candidateBytes >= bSize
                       ? FitState::multiBlocks
                       : FitState::insufficient;
    return result;
}

} // namespace gmlake::core

#endif // GMLAKE_CORE_BEST_FIT_HH
