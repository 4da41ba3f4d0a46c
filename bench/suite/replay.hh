/**
 * @file
 * Replaying a workload's rows, the correctness gate applied to every
 * replay, and the outside-in layer timing of the traced replay.
 *
 * Layers are measured from the benchmark's side of each module's
 * public interface: a TimedAllocator wraps the alloc::Allocator the
 * engine calls, a TimedHook wraps the offload tier's reclaim hook the
 * allocator calls, and the vmm and offload modules' own host-time
 * counters are read across those calls. The nesting is
 *
 *     replay wall (SimEngine::run)
 *     ├─ workload pull        (timed separately: a fresh source drained
 *     │                        of as many events as the replay pulled)
 *     ├─ alloc calls          allocate / deallocate / synchronize
 *     │  ├─ vmm in alloc      Device entry points, not via reclaim
 *     │  ├─ offload in alloc  reclaim hook fired inside a call
 *     │  └─ core self         the rest: BestFit, stitch, pools
 *     ├─ offload outside      touch / prefetch / register / forget
 *     └─ sim self             the rest: merge loop, bookkeeping
 */

#ifndef GMLAKE_BENCH_SUITE_REPLAY_HH
#define GMLAKE_BENCH_SUITE_REPLAY_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "calibration.hh"
#include "core/gmlake_allocator.hh"
#include "obs/recorder.hh"
#include "sim/runner.hh"
#include "workloads.hh"

namespace gmlake::bench
{

/** FNV-1a 64-bit, fed field by field. */
class Digest
{
  public:
    void add(std::uint64_t v);
    /** Quantized to 2^-20 so last-ulp libm differences cannot flip it. */
    void add(double v);
    void add(std::string_view s);
    std::uint64_t value() const { return mHash; }

  private:
    std::uint64_t mHash = 0xcbf29ce484222325ULL;
};

/**
 * Spans kept in memory: an aggregate per boundary, plus the first
 * kKeep spans per boundary with their parent; later ones are only
 * counted as dropped.
 */
class SpanLog
{
  public:
    enum Boundary : std::uint8_t
    {
        replay,
        allocate,
        deallocate,
        synchronize,
        reclaim,
        kBoundaries,
    };
    static constexpr std::size_t kKeep = std::size_t{1} << 16;

    struct Span
    {
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::int32_t parent = -1;
        Boundary boundary = replay;
    };

    /** Open a span; returns its index, or -1 when dropped. */
    int open(Boundary b, std::uint64_t start);
    void close(int index, Boundary b, std::uint64_t start,
               std::uint64_t end);

    /** Chrome-trace JSON of the kept spans plus the aggregates. */
    void writeChromeTrace(const std::string &path) const;

  private:
    static const char *name(Boundary b);

    std::vector<Span> mSpans;
    std::vector<int> mStack;
    std::uint64_t mKept[kBoundaries] = {};
    std::uint64_t mCount[kBoundaries] = {};
    std::uint64_t mTotalNs[kBoundaries] = {};
    std::uint64_t mDropped[kBoundaries] = {};
};

/** Host-time counters filled by a traced replay. */
struct Layers
{
    SpanLog spans;
    /** Depth of wrapped allocator calls (reclaim nests inside). */
    int allocDepth = 0;

    std::uint64_t allocCalls = 0;
    std::uint64_t allocBusyNs = 0;
    std::uint64_t oomReturns = 0;
    /** Host ns of every allocate() call, for exact percentiles. */
    std::vector<std::uint64_t> allocateNs;
    /** ApiCounters::vmmWallNs accrued inside wrapped allocator calls. */
    std::uint64_t vmmInAllocCallsNs = 0;
    /** Offload wall and vmm wall of reclaims nested in those calls. */
    std::uint64_t offloadInAllocNs = 0;
    std::uint64_t vmmInNestedReclaimNs = 0;

    /** Whole-replay totals of the two modules' own counters. */
    std::uint64_t vmmBusyNs = 0;
    std::uint64_t offloadBusyNs = 0;
};

struct ReplayOptions
{
    sim::AllocatorKind kind = sim::AllocatorKind::gmlake;
    /** Traced replay: time every layer boundary into this. */
    Layers *layers = nullptr;
    /** Replay with this obs recorder active (one run per row). */
    obs::Recorder *recorder = nullptr;
    /** SimEngine worker threads (1 = serial replay). */
    std::size_t engineThreads = 1;
    /** Seed of the heap shift applied before each row (see replay.cc). */
    std::uint64_t layoutSeed = 0;
    /** Scales the replay's host time to the reference speed. */
    Calibrator *calibrator = nullptr;
};

/** Deterministic per-row facts the metrics are computed from. */
struct RowFacts
{
    Bytes peakReserved = 0;
    double utilization = 0.0;
    Tick simTime = 0;
    bool anyOom = false;
    int killed = 0;
};

/** Outcome of replaying every row of a workload once. */
struct Replay
{
    /** Host ns inside SimEngine::run, summed over rows. */
    std::uint64_t wallNs = 0;
    /** wallNs at the reference speed (0 without a calibrator). */
    double scaledNs = 0.0;
    /**
     * Events the engine pulled from each tenant's source, rows in
     * order. A killed tenant's source is not drained, so this can be
     * less than the input's event count.
     */
    std::vector<std::uint64_t> pulled;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    /** Correctness-gate violations (empty = passed). */
    std::vector<std::string> failures;

    std::vector<RowFacts> rows;
    core::StrategyCounters strategy;
    std::uint64_t pBlocks = 0;
    std::uint64_t sBlocks = 0;
    std::uint64_t apiCalls = 0;
    Tick deviceApiNs = 0;
    std::uint64_t peakHoles = 0;
    Bytes evictedBytes = 0;
    Bytes faultedBytes = 0;
    Tick stallNs = 0;
    std::uint64_t commitStallNs = 0;
};

/**
 * Replay every row of @p inputs on a fresh device and allocator,
 * checking after each row that the allocator's invariants hold, that
 * a run without kills ends with no active bytes, and that every
 * surviving session freed what it allocated.
 */
Replay replay(const Inputs &inputs, const ReplayOptions &options);

/** Event count and FNV-1a hash of every tenant's event stream. */
struct Fingerprint
{
    std::uint64_t events = 0;
    std::uint64_t hash = 0;
};

/** Drain a fresh cursor of every tenant, hashing each event. */
Fingerprint fingerprint(const Inputs &inputs);

/**
 * Pull @p pulled[i] events from a fresh cursor of the i-th tenant
 * (rows in order); returns the events pulled, which falls short only
 * when a source ends early.
 */
std::uint64_t drain(const Inputs &inputs,
                    const std::vector<std::uint64_t> &pulled);

} // namespace gmlake::bench

#endif // GMLAKE_BENCH_SUITE_REPLAY_HH
