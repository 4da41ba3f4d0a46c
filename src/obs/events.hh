/**
 * @file
 * Event vocabulary of the observability layer.
 *
 * Every instrumentation site in the stack emits one fixed-size
 * Event record (64 bytes, POD, no ownership) into its thread's ring;
 * variable-length payloads (stitch member lists, hole histograms)
 * live in a per-thread side blob of u64 words referenced by
 * offset/length. Names and categories are small enums so the hot
 * path never touches a string; the tables at the bottom translate
 * them for the exporters.
 *
 * Timestamps are *simulated* nanoseconds from the device clock:
 * recording never advances simulated time, so a run traced with a
 * live recorder is decision-identical to an untraced one (pinned by
 * the 27 decision digests running both ways).
 */

#ifndef GMLAKE_OBS_EVENTS_HH
#define GMLAKE_OBS_EVENTS_HH

#include <cstdint>

namespace gmlake::obs
{

/** Chrome-trace phase the record maps to. */
enum class EventKind : std::uint8_t
{
    span = 0,     //!< complete span: simTime .. simTime + dur
    instant = 1,  //!< point event (OOM post-mortem, kills, marks)
    counter = 2,  //!< sampled value (a0) on a counter track
};

/** Subsystem that emitted the record. */
enum class EventCat : std::uint8_t
{
    device = 0,   //!< vmm::Device API calls
    alloc = 1,    //!< allocator decisions (BestFit phases, stitches)
    engine = 2,   //!< session lifecycle / OOM post-mortems
    offload = 3,  //!< host-tier spills and fault-ins
    sample = 4,   //!< MemorySampler counter tracks
};

/**
 * Event names. Keep this list append-only within a PR: the columnar
 * dump stores the raw enum value.
 */
enum class EvName : std::uint16_t
{
    // --- vmm::Device API spans (cat device) -------------------
    // One span per entry-point call. a0 = bytes (chunks for
    // unmap/setAccess, the batch size for mapBatch, the chunk count
    // for the *Run calls further down), a1 = fault errc (0 = clean),
    // a2 = provenance scope token (0 = outside alloc).
    devAddressReserve = 0,
    devAddressFree,
    devCreate,
    devRelease,
    devMap,
    devMapBatch,
    devUnmap,
    devSetAccess,
    devMallocNative,
    devFreeNative,
    devCopyD2H,
    devCopyH2D,
    devCopyWait,

    // --- allocator decisions (cat alloc) ----------------------
    /** Span over one allocate(): a0 = allocId (0 on failure),
     *  a1 = requested bytes, a2 = scope token. */
    alloc,
    /** BestFit phase chosen: a0 = phase (AllocPhase), a1 = rounded
     *  request, a2 = scope token. */
    allocPhase,
    /** Stitch composed: a0 = sBlock id, a1 = total bytes,
     *  a2 = scope token; blob = member pBlock ids. */
    stitch,
    /** Split: a0 = original pBlock id, a1 = left size,
     *  a2 = right size. */
    split,
    /** Cached stitch dissolved by the robustness guard:
     *  a0 = sBlock id, a1 = bytes. */
    stitchFree,
    /** Reclaim-ladder rung: a0 = attempt, a1 = bytes reclaimed by
     *  the hook, a2 = scope token. */
    reclaimRung,
    /** Cache drop fallback (no offload hook): a0 = bytes released. */
    releaseCached,

    // --- offload tier (cat offload) ---------------------------
    /** Spill to host: a0 = pBlock id, a1 = bytes, a2 = token. */
    spill,
    /** Fault back in: a0 = pBlock id, a1 = bytes, a2 = token. */
    faultIn,

    // --- engine lifecycle (cat engine) ------------------------
    /** a0 = session index. */
    sessionStart,
    /** OOM post-mortem instant: a0 = requested bytes, a1 = largest
     *  free device extent, a2 = evictable bytes. */
    sessionOom,
    /** Scripted / fault-driven abort: a0 = session index. */
    sessionAborted,
    /** a0 = iterations completed. */
    iterationMark,
    /** Tensor bound to an allocation: a0 = tensor id,
     *  a1 = alloc id, a2 = bytes. */
    tensorBind,
    /** Tensor released: a0 = tensor id, a1 = alloc id. */
    tensorFree,

    // --- MemorySampler counters (cat sample) ------------------
    /** Counter value in a0; the track name carries the meaning
     *  (e.g. "mem.active", "tenant:A.live", "frag.largest_hole"). */
    counterSample,
    /** Free-extent histogram snapshot: blob = power-of-two bucket
     *  counts, a0 = bucket count, a1 = largest hole bytes,
     *  a2 = hole count. */
    holeHistogram,

    // --- vmm::Device chunk runs (cat device, see above) --------
    devCreateRun,
    devCreateMapRun,
    devReleaseRun,
    devUnmapReleaseRun,

    count_, //!< sentinel, keep last
};

/** Allocator decision outcome recorded by EvName::allocPhase. */
enum class AllocPhase : std::uint64_t
{
    smallPath = 0,   //!< delegated to the embedded small-path pool
    s1ExactMatch = 1,
    s2SingleBlock = 2,
    s3MultiBlocks = 3,
    s4Insufficient = 4,
    s5Oom = 5,
};

/** Fixed-size record; see file comment for field roles. */
struct Event
{
    std::uint64_t simTime = 0;  //!< simulated ns (span start)
    std::uint64_t dur = 0;      //!< span length; 0 for non-spans
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    std::uint32_t seq = 0;      //!< per-thread emission order
    std::uint32_t track = 0;    //!< Recorder track id
    std::uint32_t blobOff = 0;  //!< offset into the thread blob
    std::uint32_t blobLen = 0;  //!< u64 words referenced (0 = none)
    EvName name = EvName::count_;
    EventKind kind = EventKind::instant;
    EventCat cat = EventCat::engine;
    std::uint8_t pad = 0;
};

static_assert(sizeof(Event) == 64, "Event must stay one cache line");

/** Canonical spelling of @p name for the exporters. */
const char *evName(EvName name);

/** Chrome-trace category string for @p cat. */
const char *evCat(EventCat cat);

/** Human label for an AllocPhase ("stitch of N" resolved later). */
const char *allocPhaseName(AllocPhase phase);

} // namespace gmlake::obs

#endif // GMLAKE_OBS_EVENTS_HH
