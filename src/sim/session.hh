/**
 * @file
 * Multi-session simulation core: N workloads ("sessions") co-located
 * on one shared device + allocator.
 *
 * A Session is an event stream plus a private namespace: the engine
 * pulls events through the EventSource cursor API and relocates
 * each session's streams and tensors into disjoint id ranges, so a
 * training replay and a serving replay generated independently can
 * contend for the same GPU — the co-located-tenant setting where
 * fragmentation bites hardest.
 *
 * The SimEngine is event-driven: every session carries a local
 * timeline (its cumulative compute time, offset by its start time),
 * and the engine always executes the globally earliest pending event
 * (ties broken by session index, so replays are deterministic).
 * Compute is modelled as fully concurrent across sessions — only
 * advances of the merged time frontier cost simulated time — while
 * allocator/device API costs serialize on the shared clock, exactly
 * like kernels overlapping on different streams of one GPU whose
 * driver allocation calls do not.
 *
 * Session failure is tenant-scoped: a session that OOMs dies alone;
 * its live allocations are returned to the allocator (the OS reclaims
 * a killed process's device memory) whenever other sessions are still
 * running, and the survivors replay on.
 */

#ifndef GMLAKE_SIM_SESSION_HH
#define GMLAKE_SIM_SESSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "workload/event_source.hh"

namespace gmlake::sim
{

/**
 * Stream-id stride between session namespaces. Session i's stream s
 * is replayed as `i * kSessionStreamStride + s`; traces must use
 * stream ids below the stride (real workloads use a handful).
 */
inline constexpr StreamId kSessionStreamStride = StreamId{1} << 16;

/**
 * One tenant workload: a named event stream with an arrival time.
 *
 * The stream is any EventSource — a wrapped Trace, an mmap-ed
 * binary trace, or a generator — and the engine only ever pulls it
 * through the cursor interface, so a session's footprint is
 * independent of its event count.
 */
class Session
{
  public:
    /** Own @p trace (moved in, wrapped in a VectorSource). */
    Session(std::string name, workload::Trace trace,
            Tick startTime = 0);

    /**
     * Borrow @p trace without copying; the caller keeps it alive
     * until the engine run finishes (debug builds assert this, see
     * Trace::assertAlive).
     */
    Session(std::string name, const workload::Trace *trace,
            Tick startTime = 0);

    /**
     * Stream events from @p source (binary trace or generator).
     * Ownership is shared: pass a unique_ptr (it converts) to hand
     * the source over entirely, or keep a shared_ptr copy to read
     * generator counters after the engine has been torn down —
     * sessions die with the engine, so a raw pointer into a
     * handed-over source dangles once the run returns. Sessions of
     * one engine may not share a source object (SimEngine::run).
     */
    Session(std::string name,
            std::shared_ptr<workload::EventSource> source,
            Tick startTime = 0);

    const std::string &name() const { return mName; }
    /** The session's event cursor (reset + drained by the engine). */
    workload::EventSource &source() const { return *mSource; }
    /** Local-timeline offset at which this session starts. */
    Tick startTime() const { return mStartTime; }

  private:
    std::string mName;
    std::shared_ptr<workload::EventSource> mSource;
    Tick mStartTime;
};

/**
 * One tenant of a co-located workload: a named trace it owns and its
 * arrival time. Scenarios keep their tenants for every run they
 * compare, and each run borrows them into fresh sessions.
 */
struct Tenant
{
    std::string name;
    workload::Trace trace;
    Tick startTime = 0;
};

/**
 * Sessions borrowing the first @p count of @p tenants (all of them by
 * default); the tenants must outlive the run.
 */
std::vector<Session> borrowSessions(const std::vector<Tenant> &tenants,
                                    std::size_t count = SIZE_MAX);

/** Per-session outcome of a multi-session run. */
struct SessionResult
{
    std::string name;
    bool oom = false;
    /** Engine time (ns since run start) at which the session died. */
    Tick oomAt = 0;
    /**
     * Session was terminated by chaos — an Errc::faultInjected
     * failure or a scripted tenant kill — rather than by OOM;
     * mutually exclusive with `oom`.
     */
    bool aborted = false;
    int iterationsDone = 0;
    std::uint64_t allocCount = 0;
    std::uint64_t freeCount = 0;
    /** Peak of this session's live requested bytes. */
    Bytes peakLiveBytes = 0;
    /**
     * Engine time at which the session's timeline completed: its
     * last allocator-visible event, or — for a trace ending in
     * compute — the first merged-timeline instant at or after that
     * compute finished.
     */
    Tick endedAt = 0;

    /** Offload tier: bytes of this tenant spilled to / faulted from
     *  host (zero without an OffloadManager). */
    Bytes evictedBytes = 0;
    Bytes faultedBytes = 0;

    /**
     * OOM post-mortem, filled when the session is killed: what the
     * failing request asked for, the largest free physical extent at
     * that instant, and how many bytes eviction could still have
     * freed (cache trims + resident live victims). Also logged.
     */
    Bytes oomRequestedBytes = 0;
    Bytes oomLargestFree = 0;
    Bytes oomEvictableBytes = 0;
};

/**
 * Mid-run state of one session, captured by a run with
 * EngineOptions::captureResume and re-injected into a tail run via
 * EngineOptions::resume. Pure bookkeeping — the allocator/device
 * state travels separately as an alloc::Checkpoint.
 */
struct SessionSeed
{
    /** One live tensor: trace id, allocator id, requested bytes. */
    struct LiveEntry
    {
        workload::TensorId tensor = 0;
        alloc::AllocId id = 0;
        Bytes bytes = 0;
    };

    /** Live tensors at capture, sorted by tensor id. */
    std::vector<LiveEntry> live;
    /** Remapped stream ids the session touched, first-use order. */
    std::vector<StreamId> seenStreams;
    /**
     * Session was OOM-killed during the captured prefix. A seeded
     * dead session replays nothing but still occupies its slot, so
     * reclaim's survivor scan and stream namespacing match the
     * uninterrupted run. Its tail SessionResult reports oom = false —
     * the death belongs to the warmup run's results.
     */
    bool dead = false;
    /** The session's local timeline (absolute, not normalized). */
    Tick localTime = 0;
};

/** Everything a tail run needs to continue a captured run. */
struct ResumeState
{
    /** Merged virtual time already charged to the device clock. */
    Tick frontier = 0;
    /** One seed per session, in session-index order. */
    std::vector<SessionSeed> sessions;
};

/** Combined + per-session metrics of one engine run. */
struct MultiRunResult
{
    /**
     * Device-wide metrics (allocator stats, shared clock); `oom` is
     * set when any session died.
     */
    RunResult combined;
    std::vector<SessionResult> sessions;

    /** Captured state (only when EngineOptions::captureResume). */
    std::shared_ptr<const ResumeState> resume;

    bool anyOom() const;
    /** Result for the session named @p name; nullptr if unknown. */
    const SessionResult *find(const std::string &name) const;
};

/**
 * Event-queue replay engine merging N sessions onto one allocator.
 *
 * Single-session runs are bit-identical to the historical runTrace()
 * loop (which is now a thin wrapper over this engine).
 */
class SimEngine
{
  public:
    SimEngine(alloc::Allocator &allocator, vmm::Device &device,
              EngineOptions options = {});

    /** Register a session; returns its index (= namespace id). */
    std::size_t addSession(Session session);

    /**
     * Replay every session to completion (or death). @p config, when
     * given, derives combined throughput the way runTrace() does.
     * The engine is single-shot: run it once.
     *
     * The calling thread pulls and executes every event in
     * (localTime, sessionIndex) order; it is the only thread that
     * touches the sources, the allocator and the device. It peeks
     * each event once and copies it from the pointer peek()
     * returned, which the source keeps valid only until its next
     * advance(), so every session needs its own source object: a
     * run whose sessions share one panics before replaying. A
     * streamed event that Trace::validate() would reject (an alloc
     * of a live tensor, a negative compute, a free, touch or
     * prefetch of an unknown tensor) panics too.
     */
    MultiRunResult run(const workload::TrainConfig *config = nullptr);

  private:
    alloc::Allocator &mAllocator;
    vmm::Device &mDevice;
    EngineOptions mOptions;
    std::vector<Session> mSessions;
    bool mRan = false;
};

} // namespace gmlake::sim

#endif // GMLAKE_SIM_SESSION_HH
