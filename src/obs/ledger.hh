/**
 * @file
 * Allocation provenance ledger.
 *
 * Built offline from a recorder snapshot, the ledger joins three
 * event families recorded during a run:
 *
 *   - allocator `alloc` spans + `allocPhase`/`stitch` decision
 *     events, keyed by the provenance scope token the allocator
 *     sets for the duration of each allocate() call;
 *   - `vmm::Device` API spans carrying the same token, so every
 *     simulated nanosecond of device work is attributed to the
 *     allocation that caused it;
 *   - engine `tensorBind`/`tensorFree` events tying workload
 *     tensors to allocation ids over time.
 *
 * The result answers `gmlake_sim probe` queries: for a tensor (or
 * any point in simulated time), which pBlocks back it, how they
 * were obtained (fresh reserve, cache reuse, stitch of N, …),
 * whether it was remapped after a spill, and what the allocation
 * cost in device-API time.
 */

#ifndef GMLAKE_OBS_LEDGER_HH
#define GMLAKE_OBS_LEDGER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/recorder.hh"

namespace gmlake::obs
{

/** Everything known about one successful allocation. */
struct AllocProvenance
{
    std::uint64_t allocId = 0;
    std::uint64_t token = 0;
    std::uint64_t requested = 0;   //!< bytes asked for
    std::uint64_t simTime = 0;     //!< allocate() span start
    std::uint64_t dur = 0;         //!< simulated ns inside allocate
    AllocPhase phase = AllocPhase::smallPath;
    std::uint64_t sBlockId = 0;    //!< 0 unless stitched
    std::vector<std::uint64_t> members; //!< stitch member pBlock ids
    std::uint64_t deviceCostNs = 0; //!< attributed device-API time
    /** Device entry-point calls in scope: a chunk run or a map
     *  batch counts once, however many chunks it covers. */
    std::uint64_t deviceCalls = 0;
    std::uint64_t spills = 0;       //!< host-tier spills in scope
    std::uint64_t faultIns = 0;     //!< post-spill remaps in scope
    std::uint64_t reclaimRungs = 0; //!< ladder rungs climbed

    /** "cache reuse", "stitch of 3", "fresh reserve", ... */
    std::string originLabel() const;
};

/** One tensor ↔ allocation binding interval. */
struct TensorBinding
{
    std::uint64_t tensor = 0;
    std::uint64_t allocId = 0;
    std::uint64_t bytes = 0;
    std::uint64_t boundAt = 0;
    /** ~0 while still live at end of trace. */
    std::uint64_t freedAt = ~std::uint64_t{0};

    bool liveAt(std::uint64_t tick) const
    {
        return boundAt <= tick && tick < freedAt;
    }
};

class Ledger
{
  public:
    /** Join @p snap's event families into a queryable ledger. */
    static Ledger build(const RecorderSnapshot &snap);

    const AllocProvenance *alloc(std::uint64_t allocId) const;
    /** All binding intervals of @p tensor, in bind order. */
    std::vector<const TensorBinding *> tensor(
        std::uint64_t tensor) const;
    /** Bindings live at @p tick, ordered by tensor id. */
    std::vector<const TensorBinding *> liveAt(
        std::uint64_t tick) const;

    std::size_t allocCount() const { return mAllocs.size(); }
    std::size_t bindingCount() const { return mBindings.size(); }
    /** Every allocation with provenance, keyed by alloc id. */
    const std::map<std::uint64_t, AllocProvenance> &allocs() const
    {
        return mAllocs;
    }
    /** Every tensor ↔ allocation interval, in bind order. */
    const std::vector<TensorBinding> &bindings() const
    {
        return mBindings;
    }

    /** Human report for `probe --tensor T`. */
    void reportTensor(std::ostream &out,
                      std::uint64_t tensor) const;
    /** Human report for `probe --at TICK`. */
    void reportAt(std::ostream &out, std::uint64_t tick) const;

  private:
    void reportBinding(std::ostream &out,
                       const TensorBinding &binding) const;

    std::map<std::uint64_t, AllocProvenance> mAllocs;
    std::vector<TensorBinding> mBindings;
};

} // namespace gmlake::obs

#endif // GMLAKE_OBS_LEDGER_HH
