/**
 * @file
 * Pull-based event cursors: the streaming counterpart of a
 * materialized Trace. An EventSource hands the replay engine one
 * Event at a time (`peek()`/`advance()`), so a consumer never needs
 * the whole stream in memory — a 10⁷-event serving day replays with
 * the same footprint as a 10³-event smoke trace.
 *
 * Three families implement it:
 *  - VectorSource wraps an existing Trace (owned or borrowed) and is
 *    bit-identical to indexed iteration;
 *  - BinaryTraceSource (workload/binary_trace.hh) walks an mmap-ed
 *    columnar `.gmt` file;
 *  - generator sources (workload/generators.hh) synthesize events on
 *    the fly and never materialize anything.
 *
 * MergeSource interleaves N sources by cumulative compute time —
 * the streaming form of mergeTraces(), which is a thin drain-to-Trace
 * wrapper over it.
 */

#ifndef GMLAKE_WORKLOAD_EVENT_SOURCE_HH
#define GMLAKE_WORKLOAD_EVENT_SOURCE_HH

#include <deque>
#include <memory>
#include <vector>

#include "workload/trace.hh"

namespace gmlake::workload
{

/**
 * A forward-only cursor over a stream of allocation events.
 *
 * Contract: `peek()` returns the current event, or nullptr once the
 * stream is exhausted; the pointer stays valid until the next
 * `advance()`/`reset()`. `advance()` may only be called while
 * `peek()` is non-null. `reset()` rewinds to the first event;
 * deterministic sources (everything in this project) must replay the
 * identical stream after a reset.
 */
class EventSource
{
  public:
    virtual ~EventSource() = default;

    /** Current event, or nullptr at end of stream. */
    virtual const Event *peek() = 0;

    /** Step past the current event (requires peek() != nullptr). */
    virtual void advance() = 0;

    /**
     * Expected total number of events: exact for materialized
     * sources, an estimate for generators (used only to size
     * sampling strides and progress meters, never for correctness).
     */
    virtual std::size_t sizeHint() const = 0;

    /** Rewind to the first event. */
    virtual void reset() = 0;

    /**
     * Unused by the engine, which never pulls ahead of the event it
     * executes. Kept only because the benchmark suite's counting
     * source (bench/suite/replay.cc) overrides it.
     */
    virtual bool pure() const { return false; }
};

/**
 * EventSource over a materialized Trace. Owns the trace when
 * constructed by value; borrows when constructed from a pointer, in
 * which case debug builds verify on every access that the owner has
 * not destroyed it (Trace::assertAlive).
 */
class VectorSource final : public EventSource
{
  public:
    /** Own @p trace (moved in). */
    explicit VectorSource(Trace trace);

    /**
     * Borrow @p trace without copying; the caller keeps it alive for
     * the lifetime of this source.
     */
    explicit VectorSource(const Trace *trace);

    const Event *peek() override;
    void advance() override;
    std::size_t sizeHint() const override { return mTrace->size(); }
    void reset() override;

    const Trace &trace() const { return *mTrace; }

  private:
    std::shared_ptr<const Trace> mOwned;
    const Trace *mTrace;
    std::size_t mNext = 0;
};

/**
 * Streams the merge-interleave of N sources: the tenant whose next
 * event carries the smallest cumulative compute time goes first
 * (ties broken by input index), compute events become deltas of the
 * merged timeline, and — when merging more than one input — a
 * kAnyStream sync is rewritten into per-stream syncs of the streams
 * that tenant has used so far. Exactly the ordering mergeTraces()
 * materializes and the multi-session SimEngine replays, but holding
 * at most one in-flight event per tenant. The sources must already
 * occupy disjoint namespaces (see remapTrace).
 */
class MergeSource final : public EventSource
{
  public:
    explicit MergeSource(
        std::vector<std::unique_ptr<EventSource>> sources);

    const Event *peek() override;
    void advance() override;
    std::size_t sizeHint() const override;
    void reset() override;

  private:
    struct Cursor
    {
        std::unique_ptr<EventSource> source;
        Tick localTime = 0;
        std::vector<StreamId> seenStreams;
    };

    void refill();

    std::vector<Cursor> mCursors;
    std::deque<Event> mPending;
    Tick mMergedTime = 0;
    bool mDrained = false;
};

/** Drain @p source into a materialized Trace (stats recomputed). */
Trace materialize(EventSource &source);

} // namespace gmlake::workload

#endif // GMLAKE_WORKLOAD_EVENT_SOURCE_HH
