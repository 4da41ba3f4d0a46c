/**
 * @file
 * Abstract allocator interface. All three strategies the paper
 * compares (native, caching/BFC, GMLake) implement it, so the
 * simulation engine and the benchmarks are allocator-agnostic —
 * exactly the transparency property GMLake claims.
 *
 * An allocator is used from one thread, the one that owns its
 * vmm::Device; none of them lock.
 */

#ifndef GMLAKE_ALLOC_ALLOCATOR_HH
#define GMLAKE_ALLOC_ALLOCATOR_HH

#include <cstdint>
#include <string>

#include "alloc/checkpoint.hh"
#include "alloc/offload_hook.hh"
#include "alloc/snapshot.hh"
#include "alloc/stats.hh"
#include "support/expected.hh"
#include "support/types.hh"

namespace gmlake::alloc
{

/** Identifier of a live allocation, returned to the "tensor" layer. */
using AllocId = std::uint64_t;

/** Result of a successful allocation. */
struct Allocation
{
    AllocId id = 0;
    /** Bytes the caller asked for. */
    Bytes requested = 0;
    /** Device virtual address the tensor would use. */
    VirtAddr addr = kNullAddr;
};

/**
 * Cross-stream reuse event lag: a block freed on stream S becomes
 * reusable by other streams once the event recorded at free time
 * completes, modelled as this many simulated nanoseconds after the
 * free (PyTorch's process_events mechanism).
 */
inline constexpr Tick kStreamEventLagNs = 2'000'000;

/**
 * The cross-stream reuse rule: a cached block freed on
 * @p blockStream at @p freedAt may serve a request on @p stream at
 * @p now when the streams match, when a synchronization retagged it
 * kAnyStream, or when its free event has lapsed.
 */
constexpr bool
streamReusable(StreamId blockStream, Tick freedAt, StreamId stream,
               Tick now)
{
    return blockStream == stream || blockStream == kAnyStream ||
           freedAt + kStreamEventLagNs <= now;
}

class Allocator
{
  public:
    virtual ~Allocator() = default;

    /**
     * Allocate @p size bytes for use on @p stream;
     * Errc::outOfMemory is a normal result. Cached memory freed by a
     * different, unsynchronized stream is not eligible for reuse.
     */
    virtual Expected<Allocation> allocate(Bytes size,
                                          StreamId stream) = 0;

    /** Convenience: allocate on the default stream. */
    Expected<Allocation>
    allocate(Bytes size)
    {
        return allocate(size, kDefaultStream);
    }

    /** Return allocation @p id; invalidValue for unknown ids. */
    virtual Status deallocate(AllocId id) = 0;

    /**
     * Stream synchronization: cached blocks freed on @p stream become
     * reusable by every stream.
     */
    virtual void streamSynchronize(StreamId stream) { (void)stream; }

    /** Device-wide synchronization: all cached blocks become free. */
    virtual void deviceSynchronize() {}

    /** Release cached device memory back to the device, best effort. */
    virtual void emptyCache() {}

    virtual const AllocatorStats &stats() const = 0;

    virtual std::string name() const = 0;

    // --- fault recovery -------------------------------------------------

    /**
     * How often the allocator unwound or rode out a failed device API
     * call. Both stay 0 in fault-free runs (a failing device call is
     * the only trigger), so reporting them is digest-neutral.
     */
    struct RecoveryCounters
    {
        /** Multi-call mutations unwound to their pre-attempt state. */
        std::uint64_t rollbacks = 0;
        /** Failed attempts later satisfied through the reclaim ladder. */
        std::uint64_t recovered = 0;
    };

    virtual RecoveryCounters recoveryCounters() const { return {}; }

    /**
     * Deep self-check of every internal invariant the allocator can
     * state against its own books and the backing device: extent and
     * mapping consistency, refcounts, sharer back-pointers, byte
     * conservation, index memberships. Panics (GMLAKE_ASSERT) on the
     * first violation; returns normally when clean. Called by tests
     * and by the chaos harness after every recovery — it is O(state)
     * and takes no shortcuts, so keep it off hot paths.
     */
    virtual void auditInvariants() const {}

    // --- checkpoint / restore ------------------------------------------

    /**
     * Deep-copy the allocator's pools *and* the backing device into
     * a value object (alloc/checkpoint.hh). The checkpoint is
     * self-contained: restoring it into this allocator — or into a
     * freshly constructed allocator of the same kind on a device of
     * the same geometry — reproduces every future decision of the
     * checkpointed run bit-identically (verified by
     * checkpoint_restore_test against the decision-digest machinery).
     */
    virtual Checkpoint saveState() const = 0;

    /**
     * Restore @p checkpoint, replacing the allocator's entire state
     * and the backing device's. The checkpoint must come from an
     * allocator of the same kind (panics otherwise). Restore is pure
     * bookkeeping — no device API calls, so it costs no simulated
     * time beyond what the checkpoint recorded.
     */
    virtual void restoreState(const Checkpoint &checkpoint) = 0;

    // --- retired concurrency hooks --------------------------------------

    /**
     * No allocator locks: one thread owns an allocator and its device.
     * These two stay declared, with their defaults, only because the
     * fixed-workload benchmark's wrapping allocator
     * (bench/suite/replay.cc) still overrides them.
     */
    virtual bool internallySynchronized() const { return false; }
    virtual std::uint64_t lockWaitNs() const { return 0; }

    // --- host-offload cooperation (src/offload) ------------------------

    /**
     * Attach the offload tier's reclaim hook; nullptr detaches it.
     * With no hook attached every offload path below is dormant and
     * the allocator behaves bit-identically to its historical self.
     */
    void setOffloadHook(OffloadHook *hook) { mOffloadHook = hook; }
    OffloadHook *offloadHook() const { return mOffloadHook; }

    /**
     * Release up to @p target bytes of cached *free* device memory
     * (no live data, so no copy), preferring forms that can be
     * rebuilt cheaply. Returns the bytes actually released. Called
     * by the offload manager before it spills live data.
     */
    virtual Bytes
    trimCache(Bytes target)
    {
        (void)target;
        return 0;
    }

    /** Upper bound on what trimCache() could release right now. */
    virtual Bytes trimmableBytes() const { return 0; }

    /** True when spillLive()/faultLive() are implemented. */
    virtual bool supportsLiveSpill() const { return false; }

    /**
     * Spill live allocation @p id: copy-out is the manager's job;
     * this releases the allocation's physical device backing while
     * keeping its id and virtual address valid. Returns the physical
     * bytes released. Allocators whose blocks pin their VA to the
     * physical allocation (anything cudaMalloc-backed) cannot spill
     * transparently and return Errc::notSupported.
     */
    virtual Expected<Bytes>
    spillLive(AllocId id)
    {
        (void)id;
        return makeError(Errc::notSupported,
                         "allocator cannot spill live allocations");
    }

    /**
     * Restore the physical backing of a spilled live allocation at
     * its original virtual address. May fail with outOfMemory, in
     * which case the manager evicts more victims and retries.
     */
    virtual Status
    faultLive(AllocId id)
    {
        (void)id;
        return makeError(Errc::notSupported,
                         "allocator cannot fault live allocations");
    }

    /** Structured inventory of the allocator's current blocks. */
    virtual MemorySnapshot
    snapshot() const
    {
        MemorySnapshot snap;
        snap.allocator = name();
        snap.activeBytes = stats().activeBytes();
        snap.reservedBytes = stats().reservedBytes();
        return snap;
    }

  protected:
    OffloadHook *mOffloadHook = nullptr;
};

} // namespace gmlake::alloc

#endif // GMLAKE_ALLOC_ALLOCATOR_HH
