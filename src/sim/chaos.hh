/**
 * @file
 * Chaos / fault-injection soak harness.
 *
 * A chaos run replays a sweep scenario's co-located tenants while a
 * vmm::FaultPlan sabotages the device underneath them — randomized
 * OOM storms (probabilistic memCreate failures), mapping faults,
 * burst capacity loss — plus scripted tenant kills drawn from the
 * trial's fault seed. After every trial the allocator's deep
 * invariant audit runs and a teardown leak check verifies the device
 * holds exactly the capacity the injector destroyed, nothing more.
 *
 * Everything is a deterministic function of (scenario, workload seed,
 * fault spec, fault seed): a soak of K trials derives per-trial seeds
 * from the base fault seed and prints them, so any failing trial
 * replays bit-identically from its printed seed alone.
 */

#ifndef GMLAKE_SIM_CHAOS_HH
#define GMLAKE_SIM_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "vmm/fault_injector.hh"

namespace gmlake::sim
{

struct ChaosOptions
{
    /** Sweep scenario name ("smoke", "train", "colocate"). */
    std::string scenario = "smoke";
    AllocatorKind kind = AllocatorKind::gmlake;
    /** Workload seed (trace generation), as in `gmlake_sim sweep`. */
    std::uint64_t workloadSeed = 42;
    /**
     * Base fault seed. A single trial uses it verbatim; a soak of
     * K > 1 trials runs trial k with deriveSeed(faultSeed, k), so
     * replaying one failing trial is `--fault-seed <printed> --soak 1`.
     */
    std::uint64_t faultSeed = 1;
    /** vmm::FaultPlan spec (see FaultPlan::parse); empty = no plan. */
    std::string faultSpec;
    /** Number of randomized trials (>= 1). */
    std::size_t trials = 1;
    /** Scenario scale override; <= 0 keeps the scenario default. */
    int iterations = 0;
    /**
     * Per-session probability of a scripted kill, drawn from the
     * trial seed; the kill instant is uniform over the scenario span.
     */
    double killChance = 0.25;
};

/** Outcome of one chaos trial. */
struct ChaosTrialRecord
{
    /** Effective fault seed (replay with --fault-seed S --soak 1). */
    std::uint64_t faultSeed = 0;
    /** Combined engine result (fault counters included). */
    RunResult result;
    /** Sessions that died of OOM (injected or organic). */
    std::size_t oomSessions = 0;
    /** Scripted kills scheduled for this trial (not all may fire). */
    std::size_t scriptedKills = 0;
    /** Bytes destroyed by scheduled capacity loss. */
    Bytes capacityLost = 0;
    /** Post-run deep audit + teardown leak check passed. */
    bool auditPassed = false;
    /**
     * Trial died with a panic/fatal error (invariant violation or an
     * unhandled injected fault); the message is preserved and the
     * soak carries on so one bad trial does not hide the rest.
     */
    bool internalError = false;
    std::string error;
    std::uint64_t wallNs = 0;
};

struct ChaosReport
{
    std::string scenario;
    std::string allocator;
    std::string faultSpec;
    /** Base fault seed the per-trial seeds derive from. */
    std::uint64_t faultSeed = 0;
    std::uint64_t workloadSeed = 0;
    std::vector<ChaosTrialRecord> trials;
    std::uint64_t totalWallNs = 0;

    /** Trials that panicked or failed the audit. */
    std::size_t failures() const;
    /**
     * Process exit code for `gmlake_sim chaos`, most severe outcome
     * wins: 1 internal error / audit failure, 3 injected-fault
     * session abort, 2 tenant OOM, 0 clean completion.
     */
    int exitCode() const;
};

/** Distinct `gmlake_sim chaos` exit codes (documented in BUILDING.md). */
inline constexpr int kChaosExitClean = 0;
inline constexpr int kChaosExitInternal = 1;
inline constexpr int kChaosExitOom = 2;
inline constexpr int kChaosExitAborted = 3;

/**
 * Run one chaos trial: fresh device + allocator, install the plan
 * under @p trialSeed, replay with chaos knobs on, audit, leak-check.
 * Never throws — panics/fatals are captured in the record.
 */
ChaosTrialRecord runChaosTrial(const ChaosOptions &options,
                               std::uint64_t trialSeed);

/**
 * The post-trial check: the allocator's deep audit, then a leak
 * check. After a clean completion every trace frees what it
 * allocated, so once the cache is flushed the device must hold
 * exactly the bytes the injector destroyed and no VA reservation. A
 * run whose *last* surviving session died (@p anyDeath) may keep
 * that tenant's allocations live (the engine skips reclaim with
 * nobody left to benefit), so the strict check only applies when
 * nothing is live. Panics on a violation.
 */
void auditTeardown(Rig &rig, bool anyDeath);

/**
 * Parse a chaos fault spec (vmm::FaultPlan::parse). Also fatal on a
 * copyd2h or copyh2d rule: trials run no host tier, so nothing calls
 * the copy lanes, and a soak under such a rule would read clean while
 * testing nothing.
 */
vmm::FaultPlan parseChaosPlan(const std::string &spec);

/**
 * Run the full soak: options.trials trials, derived seeds. Fatal
 * before any trial on an unknown scenario or a spec parseChaosPlan()
 * refuses.
 */
ChaosReport runChaos(const ChaosOptions &options);

/**
 * The `gmlake_sim chaos` command line that replays the one trial run
 * with @p trialSeed: the scenario, `--fault-seed <trialSeed> --soak
 * 1`, and every option of @p options that differs from its default
 * (allocator, workload seed, iterations, kill chance, fault spec).
 */
std::string chaosReplayCommand(const ChaosOptions &options,
                               std::uint64_t trialSeed);

/**
 * Write the machine-readable soak report. Lives in the library (not
 * the CLI) so the artifact-format regression test pins the exact
 * key set downstream consumers parse.
 */
void writeChaosJson(const ChaosReport &report,
                    const ChaosOptions &options,
                    const std::string &path);

} // namespace gmlake::sim

#endif // GMLAKE_SIM_CHAOS_HH
