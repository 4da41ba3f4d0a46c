/**
 * @file
 * Replay metrics and the single-trace entry point: RunResult gathers
 * the paper's metrics (peak active and reserved memory,
 * utilization/fragmentation ratio, throughput, and the
 * memory-footprint time series of Fig 14). The replay loop itself
 * lives in the multi-session SimEngine (sim/session.hh); runTrace()
 * is its single-session convenience wrapper.
 */

#ifndef GMLAKE_SIM_ENGINE_HH
#define GMLAKE_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hh"
#include "vmm/device.hh"
#include "workload/event_source.hh"
#include "workload/trace.hh"
#include "workload/train_config.hh"

namespace gmlake::offload
{
class OffloadManager;
}

namespace gmlake::sim
{

struct ResumeState;

struct SamplePoint
{
    Tick time = 0;
    Bytes active = 0;
    Bytes reserved = 0;
};

struct RunResult
{
    std::string allocator;
    bool oom = false;
    Tick oomAt = 0;
    int iterationsDone = 0;
    Tick simTime = 0;

    Bytes peakActive = 0;
    Bytes peakReserved = 0;
    double utilization = 1.0;    //!< peak active / peak reserved
    double fragmentation = 0.0;  //!< 1 - utilization

    /** Global throughput in samples/s (all GPUs), 0 without config. */
    double samplesPerSec = 0.0;

    std::uint64_t allocCount = 0;
    std::uint64_t freeCount = 0;
    /** Simulated time spent inside device memory APIs. */
    Tick deviceApiTime = 0;

    /**
     * Host wall-clock ns of the whole run, one Stopwatch interval
     * (support/stopwatch.hh). Unlike every other field it is *not*
     * deterministic: it measures the simulator itself, not the
     * paper's simulated metrics. Per-call allocator latency is
     * measured by the traced benchmark (bench/suite), not here.
     */
    std::uint64_t runWallNs = 0;
    /**
     * Host wall-clock ns spent inside the Device's memory-management
     * entry points during the run (ApiCounters::vmmWallNs delta):
     * the hole/mapping-table share of runWallNs.
     */
    std::uint64_t vmmWallNs = 0;

    /**
     * Host-offload tier traffic (src/offload); all zero when no
     * OffloadManager is attached to the run. evictedBytes counts
     * live D2H spills plus cache trims the tier performed;
     * faultedBytes counts live H2D fault-backs (prefetched or not);
     * stallNs is the simulated time the run stalled on the copy
     * lanes. offloadWallNs is the manager's own host wallclock —
     * like the other *WallNs fields it measures the simulator, not
     * the simulation.
     */
    Bytes evictedBytes = 0;
    Bytes faultedBytes = 0;
    Tick stallNs = 0;
    std::uint64_t offloadWallNs = 0;

    /**
     * Always 0: the engine replays on the calling thread alone, so
     * nothing stalls on a stager. Kept only because the benchmark
     * suite's replay (bench/suite/replay.cc) still sums it.
     */
    std::uint64_t commitStallNs = 0;

    /**
     * Fault-injection and recovery accounting; all zero in fault-free
     * runs (an installed vmm::FaultPlan is the only source of device
     * failures, so reporting these is digest-neutral).
     * injectedFaults counts device API calls failed by the plan;
     * recovered counts allocations that succeeded after a failed
     * growth round; rollbacks counts the allocator's partial-failure
     * unwinds; abortedSessions counts tenants terminated by chaos —
     * an Errc::faultInjected failure the allocator or the offload
     * tier passed up, or a scripted kill (OOM deaths stay under
     * `oom`; any other error panics the engine).
     */
    std::uint64_t injectedFaults = 0;
    std::uint64_t recovered = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t abortedSessions = 0;

    std::vector<SamplePoint> series;
};

/**
 * Series decimation target: a run of E events samples every
 * max(1, E / kMaxSeriesPoints)-th event that is an alloc or a free,
 * plus every iteration mark and the run's end.
 */
inline constexpr std::size_t kMaxSeriesPoints = 4096;

struct EngineOptions
{
    /** Record the time series at all. */
    bool recordSeries = true;
    /**
     * Host-offload tier for this run (borrowed; must be attached to
     * the run's allocator and outlive the engine). When set, the
     * engine registers every allocation with it, routes touch and
     * prefetch trace events through it, and folds its eviction
     * statistics into the results. nullptr = offload disabled.
     */
    offload::OffloadManager *offload = nullptr;
    /**
     * Ignored: every run replays on the calling thread alone. Kept
     * only because the benchmark suite's replay
     * (bench/suite/replay.cc) still sets it.
     */
    std::size_t engineThreads = 1;
    /**
     * Checkpoint-resume support; see sim/sweep.hh for the harness
     * built on top.
     *
     * captureResume — capture a ResumeState at the end of the run
     * instead of charging trailing compute: each session's local
     * time, live tensors, seen streams and death flag, plus the
     * merged-time frontier. A run split at a time threshold charges
     * trailing compute only when the *tail* replays past it, exactly
     * like the uninterrupted run would.
     *
     * resume — continue a captured run: session i starts from
     * resume->sessions[i] instead of a cold start, and the merged
     * time from resume->frontier. Events whose local time is below
     * the frontier replay in (localTime, session) order without
     * advancing the clock — the warmup run already charged that
     * time. Restore the matching alloc::Checkpoint first, so the
     * seeds' allocator ids are live.
     */
    bool captureResume = false;
    std::shared_ptr<const ResumeState> resume;
    /**
     * Scripted tenant kills: session index i is killed — live
     * allocations reclaimed, counted as aborted — at the first of its
     * events whose local time is at or past the given tick (a kill at
     * 0 fires before its first event). Models a randomized `kill -9`
     * while staying a deterministic function of the schedule.
     */
    std::vector<std::pair<std::size_t, Tick>> tenantKills;
};

/**
 * Replay @p trace through @p allocator on @p device (a one-session
 * SimEngine run; see sim/session.hh for co-locating several traces).
 *
 * @param config optional training config used to derive throughput
 *        (samples/s = iterations x batch x gpus / elapsed time)
 */
RunResult runTrace(alloc::Allocator &allocator, vmm::Device &device,
                   const workload::Trace &trace,
                   const workload::TrainConfig *config = nullptr,
                   EngineOptions options = {});

/**
 * Replay a streaming event source — a binary trace cursor or a
 * workload generator — without ever materializing it: the one-session
 * engine run whose footprint is independent of the event count.
 * Ownership is shared: pass a unique_ptr (it converts) to hand the
 * source over, or keep a shared_ptr copy to read generator counters
 * after the run — the engine destroys its sessions before returning,
 * so a raw pointer into a handed-over source dangles.
 */
RunResult runSource(alloc::Allocator &allocator, vmm::Device &device,
                    std::shared_ptr<workload::EventSource> source,
                    const workload::TrainConfig *config = nullptr,
                    EngineOptions options = {});

} // namespace gmlake::sim

#endif // GMLAKE_SIM_ENGINE_HH
