/**
 * @file
 * Integration tests for the chaos soak harness (sim/chaos.hh):
 * trial-level determinism under a pinned fault seed, per-trial seed
 * derivation for replay, the exit-code contract of `gmlake_sim
 * chaos`, and clean audits across every built-in failure shape.
 */

#include <gtest/gtest.h>

#include "sim/chaos.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;
using sim::ChaosOptions;
using sim::ChaosReport;
using sim::ChaosTrialRecord;

namespace
{

/** Fast smoke-scenario baseline the cases below perturb. */
ChaosOptions
quickOptions()
{
    ChaosOptions options;
    options.scenario = "smoke";
    options.iterations = 1;
    options.killChance = 0.0;
    return options;
}

/** Field-by-field equality, excluding host wall time. */
void
expectSameTrial(const ChaosTrialRecord &a, const ChaosTrialRecord &b)
{
    EXPECT_EQ(a.faultSeed, b.faultSeed);
    EXPECT_EQ(a.oomSessions, b.oomSessions);
    EXPECT_EQ(a.scriptedKills, b.scriptedKills);
    EXPECT_EQ(a.capacityLost, b.capacityLost);
    EXPECT_EQ(a.auditPassed, b.auditPassed);
    EXPECT_EQ(a.internalError, b.internalError);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.result.injectedFaults, b.result.injectedFaults);
    EXPECT_EQ(a.result.recovered, b.result.recovered);
    EXPECT_EQ(a.result.rollbacks, b.result.rollbacks);
    EXPECT_EQ(a.result.abortedSessions, b.result.abortedSessions);
    EXPECT_EQ(a.result.oom, b.result.oom);
    EXPECT_EQ(a.result.simTime, b.result.simTime);
    EXPECT_EQ(a.result.allocCount, b.result.allocCount);
    EXPECT_EQ(a.result.freeCount, b.result.freeCount);
    EXPECT_EQ(a.result.peakReserved, b.result.peakReserved);
}

/** Every RunResult field except the host wall-clock ones. */
void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.allocator, b.allocator);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.oomAt, b.oomAt);
    EXPECT_EQ(a.iterationsDone, b.iterationsDone);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.peakActive, b.peakActive);
    EXPECT_EQ(a.peakReserved, b.peakReserved);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.fragmentation, b.fragmentation);
    EXPECT_EQ(a.samplesPerSec, b.samplesPerSec);
    EXPECT_EQ(a.allocCount, b.allocCount);
    EXPECT_EQ(a.freeCount, b.freeCount);
    EXPECT_EQ(a.deviceApiTime, b.deviceApiTime);
    EXPECT_EQ(a.evictedBytes, b.evictedBytes);
    EXPECT_EQ(a.faultedBytes, b.faultedBytes);
    EXPECT_EQ(a.stallNs, b.stallNs);
    EXPECT_EQ(a.commitStallNs, b.commitStallNs);
    EXPECT_EQ(a.injectedFaults, b.injectedFaults);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.abortedSessions, b.abortedSessions);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].time, b.series[i].time);
        EXPECT_EQ(a.series[i].active, b.series[i].active);
        EXPECT_EQ(a.series[i].reserved, b.series[i].reserved);
    }
}

} // namespace

TEST(ChaosSoak, FaultFreeRunIsCleanWithZeroCounters)
{
    const ChaosReport report = sim::runChaos(quickOptions());
    ASSERT_EQ(report.trials.size(), 1u);
    const ChaosTrialRecord &trial = report.trials[0];
    EXPECT_TRUE(trial.auditPassed);
    EXPECT_FALSE(trial.internalError);
    EXPECT_EQ(trial.result.injectedFaults, 0u);
    EXPECT_EQ(trial.result.recovered, 0u);
    EXPECT_EQ(trial.result.rollbacks, 0u);
    EXPECT_EQ(trial.result.abortedSessions, 0u);
    EXPECT_EQ(trial.oomSessions, 0u);
    EXPECT_EQ(trial.capacityLost, 0u);
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.exitCode(), sim::kChaosExitClean);
}

TEST(ChaosSoak, PinnedSeedIsBitDeterministic)
{
    ChaosOptions options = quickOptions();
    options.faultSpec = "create:p=0.02;mapbatch:n=4";
    options.faultSeed = 7;
    options.trials = 3;
    options.killChance = 0.5;
    const ChaosReport first = sim::runChaos(options);
    const ChaosReport second = sim::runChaos(options);
    ASSERT_EQ(first.trials.size(), 3u);
    ASSERT_EQ(second.trials.size(), 3u);
    for (std::size_t k = 0; k < first.trials.size(); ++k) {
        SCOPED_TRACE(k);
        expectSameTrial(first.trials[k], second.trials[k]);
        EXPECT_TRUE(first.trials[k].auditPassed);
    }
    EXPECT_EQ(first.failures(), 0u);
    EXPECT_EQ(first.exitCode(), second.exitCode());
}

TEST(ChaosSoak, SoakTrialsReplayFromTheirDerivedSeed)
{
    ChaosOptions soak = quickOptions();
    soak.faultSpec = "create:p=0.05";
    soak.faultSeed = 11;
    soak.trials = 2;
    soak.killChance = 0.5;
    const ChaosReport report = sim::runChaos(soak);
    ASSERT_EQ(report.trials.size(), 2u);

    // Each trial must reproduce as a one-trial run of its own seed —
    // exactly the replay command the CLI prints on failure.
    for (std::size_t k = 0; k < report.trials.size(); ++k) {
        const ChaosTrialRecord &trial = report.trials[k];
        SCOPED_TRACE(trial.faultSeed);
        EXPECT_EQ(trial.faultSeed, deriveSeed(soak.faultSeed, k));
        ChaosOptions replay = soak;
        replay.faultSeed = trial.faultSeed;
        replay.trials = 1;
        const ChaosReport rerun = sim::runChaos(replay);
        ASSERT_EQ(rerun.trials.size(), 1u);
        expectSameTrial(trial, rerun.trials[0]);
    }
}

TEST(ChaosSoak, ReplayCommandCarriesEveryNonDefaultOption)
{
    // Defaults only: the scenario, the trial's seed and one trial.
    ChaosOptions options;
    options.scenario = "train";
    EXPECT_EQ(sim::chaosReplayCommand(options, 77),
              "gmlake_sim chaos train --fault-seed 77 --soak 1");

    // Every option that changes the run rides along, the soak size
    // and base seed do not (the trial seed replaces them).
    options.kind = sim::AllocatorKind::expandable;
    options.workloadSeed = 9;
    options.iterations = 1;
    options.killChance = 0.0;
    options.faultSpec = "map:n=3";
    options.faultSeed = 1;
    options.trials = 25;
    EXPECT_EQ(sim::chaosReplayCommand(options, 123),
              "gmlake_sim chaos train --fault-seed 123 --soak 1 "
              "--allocator expandable --seed 9 --iterations 1 "
              "--kill-chance 0 --faults 'map:n=3'");

    // The kill chance prints back exactly.
    options = ChaosOptions{};
    options.killChance = 0.1;
    EXPECT_EQ(sim::chaosReplayCommand(options, 5),
              "gmlake_sim chaos smoke --fault-seed 5 --soak 1 "
              "--kill-chance 0.1");
}

TEST(ChaosSoak, ScriptedKillsAbortSessions)
{
    ChaosOptions options = quickOptions();
    options.killChance = 1.0;
    const ChaosReport report = sim::runChaos(options);
    ASSERT_EQ(report.trials.size(), 1u);
    const ChaosTrialRecord &trial = report.trials[0];
    EXPECT_TRUE(trial.auditPassed);
    EXPECT_EQ(trial.scriptedKills, 2u); // smoke = 2 tenants
    EXPECT_GT(trial.result.abortedSessions, 0u);
    EXPECT_EQ(report.exitCode(), sim::kChaosExitAborted);
}

TEST(ChaosSoak, OomStormExitsWithOomOrAbort)
{
    ChaosOptions options = quickOptions();
    // Aggressive create failures on a cold cache starve tenants.
    options.faultSpec = "create:p=0.9";
    options.faultSeed = 3;
    const ChaosReport report = sim::runChaos(options);
    ASSERT_EQ(report.trials.size(), 1u);
    EXPECT_TRUE(report.trials[0].auditPassed);
    EXPECT_GT(report.trials[0].result.injectedFaults, 0u);
    const int code = report.exitCode();
    EXPECT_TRUE(code == sim::kChaosExitOom ||
                code == sim::kChaosExitAborted)
        << "exit code " << code;
}

TEST(ChaosSoak, CapacityLossIsAccounted)
{
    ChaosOptions options = quickOptions();
    options.faultSpec = "cap:t=1,b=1G";
    const ChaosReport report = sim::runChaos(options);
    ASSERT_EQ(report.trials.size(), 1u);
    EXPECT_TRUE(report.trials[0].auditPassed);
    EXPECT_EQ(report.trials[0].capacityLost, 1_GiB);
}

TEST(ChaosSoak, UnknownScenarioIsFatal)
{
    ChaosOptions options = quickOptions();
    options.scenario = "no-such-scenario";
    EXPECT_THROW(sim::runChaos(options), FatalError);
}

TEST(ChaosSoak, MalformedSpecFailsBeforeAnyTrial)
{
    ChaosOptions options = quickOptions();
    options.faultSpec = "create:p=2.0";
    options.trials = 5;
    EXPECT_THROW(sim::runChaos(options), FatalError);
}

TEST(ChaosSoak, ArmedPlanThatCannotFireChangesNothing)
{
    // Call ordinals no run reaches and a loss due at the end of time:
    // unlike an all-p=0 plan, which chaos does not install, this one
    // arms an injector that draws for every call and never fires.
    const std::string never =
        "create:n=18446744073709551615;map:n=18446744073709551615;"
        "mapbatch:n=18446744073709551615;"
        "setaccess:n=18446744073709551615;"
        "cap:t=9223372036854775807,b=2M";
    ASSERT_FALSE(vmm::FaultPlan::parse(never).empty());
    for (const char *scenario : {"smoke", "train", "colocate"}) {
        for (const sim::AllocatorKind kind :
             {sim::AllocatorKind::gmlake, sim::AllocatorKind::expandable}) {
            SCOPED_TRACE(std::string(scenario) + " " +
                         sim::allocatorKindName(kind));
            ChaosOptions plain = quickOptions();
            plain.scenario = scenario;
            plain.kind = kind;
            ChaosOptions armed = plain;
            armed.faultSpec = never;
            const ChaosTrialRecord a =
                sim::runChaosTrial(plain, plain.faultSeed);
            const ChaosTrialRecord b =
                sim::runChaosTrial(armed, armed.faultSeed);
            EXPECT_TRUE(a.auditPassed) << a.error;
            expectSameTrial(a, b);
            expectSameResult(a.result, b.result);
        }
    }
}
