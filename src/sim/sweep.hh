/**
 * @file
 * Parallel policy-sweep harness with checkpoint/restore warm-starts.
 *
 * A sweep asks: if the GMLake policy knobs were set differently from
 * some point in time onward, how would fragmentation and stalls
 * change? Every sweep point shares the same warmup prefix, so the
 * harness replays it ONCE, captures an alloc::Checkpoint plus the
 * engine's ResumeState, and then forks: each point restores the
 * checkpoint into a fresh device + allocator built with the point's
 * GMLakeConfig and replays only the divergent tail. Points are
 * independent, so they fan out on a thread pool; results are
 * bit-identical to re-replaying the whole run per point (the
 * checkpoint_restore_test pins that equivalence), the warm start
 * just skips N-1 warmup replays.
 */

#ifndef GMLAKE_SIM_SWEEP_HH
#define GMLAKE_SIM_SWEEP_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/gmlake_config.hh"
#include "sim/runner.hh"

namespace gmlake::sim
{

/** One candidate configuration in a policy sweep. */
struct SweepPoint
{
    std::string label; //!< knob summary, e.g. "frag=16MiB,tol=0.25"
    core::GMLakeConfig config;
};

/**
 * Axes of a grid search over the GMLakeConfig *policy* knobs. An
 * empty axis keeps the base value.
 */
struct SweepGrid
{
    std::vector<Bytes> fragLimits;
    std::vector<double> nearMatchTolerances;
    std::vector<std::size_t> maxCachedSBlocks;
    std::vector<double> maxVaOverscribes;
    std::vector<bool> enableStitching;

    /** Cartesian product of the non-empty axes over @p base. */
    std::vector<SweepPoint>
    expand(const core::GMLakeConfig &base) const;
};

/**
 * Parse a `--grid` spec, "frag=2,16;tol=0,0.125;sblocks=4096;
 * overscribe=4,8;stitch=on,off", into grid axes (frag in MiB). An
 * axis without values, an unknown axis or a bad value is fatal
 * (FatalError), so a typo does not silently sweep nothing.
 */
SweepGrid parseGridSpec(const std::string &spec);

/**
 * Random search: @p count policy points drawn deterministically from
 * @p seed (ranges span the same knobs SweepGrid exposes).
 */
std::vector<SweepPoint>
randomSweepPoints(const core::GMLakeConfig &base, std::size_t count,
                  std::uint64_t seed);

/**
 * The workload a sweep replays: co-located sessions on one device,
 * plus the virtual-time threshold separating the shared warmup
 * prefix from the swept tail.
 */
struct SweepScenario
{
    std::string name;
    vmm::DeviceConfig device{};
    /** Warmup-phase allocator configuration (and structural knobs
     *  every sweep point inherits). */
    core::GMLakeConfig base{};
    std::vector<Tenant> tenants;
    /**
     * Warmup/tail boundary on the merged virtual timeline: events
     * whose local time is below it belong to the warmup prefix.
     */
    Tick splitTime = 0;

    /** Rig options of a run of this scenario: its device, the base
     *  allocator config and no time series. */
    ScenarioOptions rigOptions() const;
};

/** Names accepted by buildSweepScenario / `gmlake_sim sweep`. */
const std::vector<std::string> &sweepScenarioNames();

/** The latest final local time of @p tenants: each one's start time
 *  plus its trace's total compute. */
Tick tenantsSpan(const std::vector<Tenant> &tenants);

/**
 * Split every tenant's trace at the virtual-time threshold into a
 * warmup tenant (same start time) and a tail tenant (start 0: a
 * resumed run takes local times from its ResumeState). An event
 * belongs to the warmup prefix when the tenant's local time *before*
 * executing it is below @p splitTime (compute advances local time
 * after the event — the engine's merge-key convention), so the
 * warmup half is always a prefix. Exposed for checkpoint_restore_test
 * to drive the exact split the harness replays.
 */
std::pair<std::vector<Tenant>, std::vector<Tenant>>
splitTenantsAt(const std::vector<Tenant> &tenants, Tick splitTime);

/**
 * Build a named sweep scenario ("smoke", "train" or "colocate"),
 * deterministic in @p seed. @p iterations <= 0 keeps each scenario's
 * default scale.
 */
SweepScenario buildSweepScenario(const std::string &name,
                                 std::uint64_t seed, int iterations);

struct SweepRunOptions
{
    AllocatorKind kind = AllocatorKind::gmlake;
    /** Worker threads forking the per-point tail replays. */
    std::size_t threads = 1;
    /**
     * false = cold mode: every point re-replays the warmup prefix
     * itself before its tail (the baseline the warm start beats;
     * results are identical by construction).
     */
    bool warmStart = true;
};

/** Outcome of one sweep point's tail replay. */
struct SweepPointRecord
{
    SweepPoint point;
    /** Combined result of the tail replay (post-switch metrics). */
    RunResult tail;
    /** Host wallclock for this point (includes warmup when cold). */
    std::uint64_t pointWallNs = 0;
    /**
     * On the Pareto frontier of (fragmentation, deviceApiTime,
     * simTime), minimizing all three; OOM points never qualify.
     * All axes are simulated, so the frontier is deterministic.
     */
    bool onFrontier = false;
};

struct SweepReport
{
    std::string scenario;
    std::string allocator;
    /** Shared warmup-prefix replay (warm mode replays it once). */
    RunResult warmup;
    bool warmupOom = false;
    std::uint64_t warmupWallNs = 0;
    std::uint64_t totalWallNs = 0;
    std::vector<SweepPointRecord> points;

    /** Indices of the frontier points, in point order. */
    std::vector<std::size_t> frontier() const;
};

/**
 * Run the sweep: replay the warmup prefix (once when warm-starting),
 * checkpoint, fork the tail per point on a thread pool. The point
 * order in the report matches @p points regardless of scheduling.
 */
SweepReport runSweep(const SweepScenario &scenario,
                     const std::vector<SweepPoint> &points,
                     const SweepRunOptions &options = {});

/**
 * Reproduction header of the sweep JSON report: the inputs a reader
 * needs to re-run the sweep, alongside what the report itself
 * carries.
 */
struct SweepJsonMeta
{
    std::uint64_t seed = 42;
    int iterations = 0; //!< 0 = scenario default
    Bytes deviceCapacityBytes = 0;
    std::size_t threads = 1;
    bool warmStart = true;
    Tick splitTimeNs = 0;
};

/**
 * Write the machine-readable sweep report. Lives in the library
 * (not the CLI) so the artifact-format regression test pins the
 * exact key set downstream plotting scripts consume.
 */
void writeSweepJson(const SweepReport &report,
                    const SweepJsonMeta &meta,
                    const std::string &path);

} // namespace gmlake::sim

#endif // GMLAKE_SIM_SWEEP_HH
