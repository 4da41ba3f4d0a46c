/**
 * @file
 * Allocation traces: the request stream a training process sends to
 * the GPU allocator. A trace is allocator-agnostic; the simulation
 * engine replays the same trace against the caching allocator,
 * GMLake and the native allocator to compare them — exactly the
 * paper's methodology.
 */

#ifndef GMLAKE_WORKLOAD_TRACE_HH
#define GMLAKE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/types.hh"

namespace gmlake::workload
{

/** Tensor identifier inside a trace, assigned by the builder. */
using TensorId = std::uint64_t;

enum class EventKind : std::uint8_t
{
    alloc,          //!< allocate `bytes` on `stream`, binding `tensor`
    free,           //!< release `tensor`
    compute,        //!< advance the clock by `computeNs`
    iterationMark,  //!< training-iteration boundary (for reporting)
    streamSync,     //!< synchronize `stream` (kAnyStream = device-wide)
    touch,          //!< kernels read/write `tensor` (offload recency;
                    //!< faults a spilled tensor back in)
    prefetch,       //!< hint: `tensor` will be touched soon (offload
                    //!< tier may start its H2D early)
};

struct Event
{
    EventKind kind = EventKind::compute;
    TensorId tensor = 0;
    Bytes bytes = 0;
    Tick computeNs = 0;
    StreamId stream = kDefaultStream;
};

/** Aggregate shape of a trace (Fig 5 reports these). */
struct TraceStats
{
    std::uint64_t allocCount = 0;
    Bytes totalAllocBytes = 0;
    Bytes maxAllocBytes = 0;
    int iterations = 0;

    double
    avgAllocBytes() const
    {
        return allocCount == 0
                   ? 0.0
                   : static_cast<double>(totalAllocBytes) /
                         static_cast<double>(allocCount);
    }
};

namespace detail
{

/**
 * Liveness watermark for borrowed objects: constructed alive, marked
 * dead by the destructor, refreshed (not copied) on copy/move so the
 * flag always describes *this* object. A borrower that out-lives the
 * owner can then fail loudly in debug builds (see Trace::assertAlive)
 * instead of silently reading freed memory.
 */
class AliveCookie
{
  public:
    AliveCookie() = default;
    AliveCookie(const AliveCookie &) {}
    AliveCookie &operator=(const AliveCookie &) { return *this; }
    ~AliveCookie() { mValue = kDead; }

    bool alive() const { return mValue == kAlive; }

  private:
    static constexpr std::uint64_t kAlive = 0x616c697665ULL;
    static constexpr std::uint64_t kDead = 0xdeadULL;
    std::uint64_t mValue = kAlive;
};

} // namespace detail

class Trace
{
  public:
    void append(Event event);

    /**
     * Direct vector access, for builders, (de)serializers, and test
     * assertions only. Replay paths (SimEngine, MergeSource) consume
     * events through the EventSource cursor instead, so they work
     * unchanged on streams that were never materialized — do not
     * add engine-side indexing into this vector.
     */
    const std::vector<Event> &events() const { return mEvents; }
    std::size_t size() const { return mEvents.size(); }
    const TraceStats &stats() const { return mStats; }

    /** Sanity check: frees match allocs, no double free/alloc. */
    void validate() const;

    /** Simple line-based (de)serialization for record/replay. */
    void save(std::ostream &os) const;
    static Trace load(std::istream &is);

    /**
     * Debug-build check that a *borrowed* trace has not been
     * destroyed behind the borrower's back (VectorSource, Session).
     * No-op in release builds.
     */
    void assertAlive() const;

  private:
    std::vector<Event> mEvents;
    TraceStats mStats;
    detail::AliveCookie mCookie;
};

/**
 * Builder with tensor bookkeeping: alloc() returns a TensorId that
 * free() later consumes; mismatches panic immediately instead of
 * corrupting the experiment downstream.
 */
class TraceBuilder
{
  public:
    TensorId alloc(Bytes bytes, StreamId stream = kDefaultStream);
    void free(TensorId id);
    void compute(Tick ns);
    void iterationMark();
    /** Synchronize @p stream; kAnyStream = whole device. */
    void streamSync(StreamId stream);
    /** Record a use of live tensor @p id (offload recency/fault). */
    void touch(TensorId id);
    /** Hint that live tensor @p id will be touched soon. */
    void prefetch(TensorId id);

    /** Free every still-live tensor (end-of-run teardown). */
    void freeAll();

    std::size_t liveTensors() const { return mLive.size(); }
    Bytes liveBytes() const { return mLiveBytes; }

    Trace take();

  private:
    Trace mTrace;
    TensorId mNextTensor = 1;
    std::unordered_map<TensorId, Bytes> mLive;
    Bytes mLiveBytes = 0;
};

/**
 * Offsets that relocate a trace into a disjoint tensor/stream
 * namespace so several traces can share one allocator without id
 * collisions (multi-session colocation).
 */
struct TraceNamespace
{
    TensorId tensorOffset = 0;
    StreamId streamOffset = 0;
};

/**
 * Remap one event into @p ns: tensor ids are offset on alloc/free,
 * stream ids on every stream-carrying event. The kAnyStream sentinel
 * is preserved (it addresses the whole device, not a stream).
 */
Event remapEvent(Event event, const TraceNamespace &ns);

/** Remap a whole trace into @p ns (stats are recomputed). */
Trace remapTrace(const Trace &trace, const TraceNamespace &ns);

/**
 * Statically interleave traces by cumulative compute time, the same
 * ordering the multi-session SimEngine replays: the trace whose next
 * event carries the smallest elapsed-compute timestamp goes first
 * (ties broken by trace index), compute events become deltas of the
 * merged timeline (modelling fully concurrent tenants), and — when
 * merging more than one trace — a kAnyStream sync is rewritten into
 * per-stream syncs of the streams that trace has used so far, the
 * engine's tenant-scoped device-sync semantics. Input traces must
 * already occupy disjoint namespaces (see remapTrace).
 */
Trace mergeTraces(const std::vector<const Trace *> &traces);

} // namespace gmlake::workload

#endif // GMLAKE_WORKLOAD_TRACE_HH
