/**
 * @file
 * Constants and tunable knobs of the GMLake allocator (paper
 * Sections 3 and 4.2.3).
 */

#ifndef GMLAKE_CORE_GMLAKE_CONFIG_HH
#define GMLAKE_CORE_GMLAKE_CONFIG_HH

#include <cstddef>

#include "support/types.hh"
#include "vmm/device.hh"

namespace gmlake::core
{

/**
 * Uniform physical chunk size used for stitching: the device
 * granularity (paper: 2 MB for the best defragmentation
 * granularity).
 */
inline constexpr Bytes kChunkSize = vmm::kGranularity;

/**
 * Requests below this threshold bypass VMS and use the original
 * splitting-based small pool (paper Section 3.1: "For memory
 * allocation less than 2MB, we use the original PyTorch splitting
 * method"): one chunk.
 */
inline constexpr Bytes kSmallThreshold = kChunkSize;

/** Absolute cap on the near-match slack (see nearMatchTolerance). */
inline constexpr Bytes kNearMatchSlackCap = Bytes{64} * 1024 * 1024;

struct GMLakeConfig
{
    /**
     * Minimal fragmentation limit (paper Section 4.2.3): blocks
     * smaller than this are neither split nor used as stitching
     * candidates. The paper quotes 128 MB as an example for
     * multi-hundred-MB LLM allocations. The default equals the chunk
     * size, i.e. every chunk-aligned block may be stitched; the
     * ablation bench sweeps the limit and shows the efficiency /
     * fragmentation trade-off the paper describes.
     */
    Bytes fragLimit = kChunkSize;

    /**
     * StitchFree threshold: when the number of cached (inactive)
     * sBlocks exceeds this, the least recently used ones are
     * destroyed (paper Section 3.3.2 / 4.2.3).
     */
    std::size_t maxCachedSBlocks = 8192;

    /**
     * Secondary StitchFree trigger: total stitched virtual memory may
     * exceed the physical capacity by at most this factor.
     */
    double maxVaOverscribe = 8.0;

    /**
     * After a split, re-stitch the two halves into an sBlock of the
     * original size so the original allocation pattern still finds an
     * exact match (Fig 9, state S2). Disabled in ablations.
     */
    bool restitchOnSplit = true;

    /**
     * Near-match tolerance: a cached block whose size exceeds the
     * request by at most this fraction (capped at kNearMatchSlackCap)
     * is handed out whole instead of being split or trimmed.
     * Splitting a shared pBlock destroys every cached sBlock stitched
     * over it, so aggressive exact-fitting causes a re-stitch cascade
     * each iteration; tolerating a small slack is what keeps the
     * pattern tape stable (Section 4.2.2/4.2.3).
     */
    double nearMatchTolerance = 0.125;

    /**
     * Master switch for the stitching mechanism; with stitching off
     * the allocator degenerates to exact-match/split/alloc, used by
     * the ablation benchmark.
     */
    bool enableStitching = true;
};

} // namespace gmlake::core

#endif // GMLAKE_CORE_GMLAKE_CONFIG_HH
