/**
 * @file
 * The one parallel primitive: parallelFor over independent indices,
 * for embarrassingly parallel simulation work (cluster ranks, sweep
 * points).
 *
 * Calls must not touch shared mutable state unless they synchronize
 * it themselves; the simulator keeps determinism by giving every
 * index its own device/allocator/RNG and a dedicated result slot, so
 * the order workers finish in never influences the output.
 */

#ifndef GMLAKE_SUPPORT_THREAD_POOL_HH
#define GMLAKE_SUPPORT_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace gmlake
{

/** Hardware concurrency, with a floor of 1. */
std::size_t defaultThreads();

/**
 * Run fn(0) ... fn(n-1) on up to @p threads workers; with one thread
 * (or one item) the calls happen inline, in index order. Blocks until
 * every index completed; rethrows the first exception a call raised
 * once every other worker has finished.
 *
 * The schedule (which worker runs which index) is nondeterministic,
 * so @p fn must write only to per-index state for deterministic
 * results.
 */
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace gmlake

#endif // GMLAKE_SUPPORT_THREAD_POOL_HH
