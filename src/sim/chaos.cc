#include "sim/chaos.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "alloc/allocator.hh"
#include "sim/experiment.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "support/units.hh"
#include "vmm/device.hh"

namespace gmlake::sim
{

void
auditTeardown(Rig &rig, bool anyDeath)
{
    alloc::Allocator &allocator = rig.allocator();
    vmm::Device &device = rig.device();
    allocator.auditInvariants();

    const Bytes active = allocator.stats().activeBytes();
    if (active != 0 && !anyDeath)
        GMLAKE_PANIC("chaos leak check: ", formatBytes(active),
                     " still active after a clean completion");
    if (active != 0)
        return;

    allocator.deviceSynchronize();
    allocator.emptyCache();
    allocator.auditInvariants();
    const Bytes lost = device.faultInjector() != nullptr
                           ? device.faultInjector()->counters().capacityLost
                           : 0;
    const Bytes residual = device.phys().inUse();
    if (residual != lost)
        GMLAKE_PANIC("chaos leak check: device holds ",
                     formatBytes(residual), " after teardown, "
                     "expected exactly the injected capacity loss (",
                     formatBytes(lost), ")");
    const std::size_t reservations = device.vaSpace().reservationCount();
    if (reservations != 0)
        GMLAKE_PANIC("chaos leak check: ", reservations,
                     " VA reservations survived teardown");
}

vmm::FaultPlan
parseChaosPlan(const std::string &spec)
{
    vmm::FaultPlan plan = vmm::FaultPlan::parse(spec);
    for (const vmm::FaultApi api :
         {vmm::FaultApi::copyD2H, vmm::FaultApi::copyH2D}) {
        const vmm::FaultRule &rule = plan.rule(api);
        if (rule.probability > 0.0 || !rule.nthCalls.empty())
            GMLAKE_FATAL("chaos fault plan targets ",
                         vmm::faultApiName(api),
                         ", but chaos trials run no host tier, so no "
                         "copy-lane call can fail");
    }
    return plan;
}

ChaosTrialRecord
runChaosTrial(const ChaosOptions &options, std::uint64_t trialSeed)
{
    ChaosTrialRecord record;
    record.faultSeed = trialSeed;
    const Stopwatch wall;
    try {
        const SweepScenario scenario = buildSweepScenario(
            options.scenario, options.workloadSeed,
            options.iterations);
        ScenarioOptions rigOptions = scenario.rigOptions();
        // Scripted kills: each tenant dies with killChance at an
        // instant uniform over the scenario span — a deterministic
        // function of the trial seed, like the fault plan draws.
        Rng rng(deriveSeed(trialSeed, 0xC4A05ULL));
        const Tick span = tenantsSpan(scenario.tenants);
        for (std::size_t i = 0; i < scenario.tenants.size(); ++i) {
            if (!rng.chance(options.killChance))
                continue;
            const Tick at = static_cast<Tick>(rng.uniformInt(
                1, span > 0 ? static_cast<std::uint64_t>(span) : 1));
            rigOptions.engine.tenantKills.emplace_back(i, at);
        }
        record.scriptedKills = rigOptions.engine.tenantKills.size();

        // The plan goes in after the allocator is built, so only the
        // replay sees it.
        Rig rig(options.kind, rigOptions);
        vmm::Device &device = rig.device();
        if (!options.faultSpec.empty()) {
            vmm::FaultPlan plan = parseChaosPlan(options.faultSpec);
            if (!plan.empty())
                device.installFaultInjector(std::move(plan),
                                            trialSeed);
        }

        MultiRunResult multi = rig.run(borrowSessions(scenario.tenants));
        record.result = std::move(multi.combined);
        for (const SessionResult &session : multi.sessions) {
            if (session.oom)
                ++record.oomSessions;
        }
        if (device.faultInjector() != nullptr)
            record.capacityLost =
                device.faultInjector()->counters().capacityLost;

        auditTeardown(rig, record.oomSessions > 0 ||
                               record.result.abortedSessions > 0);
        record.auditPassed = true;
    } catch (const PanicError &e) {
        record.internalError = true;
        record.error = e.what();
    } catch (const FatalError &e) {
        record.internalError = true;
        record.error = e.what();
    }
    record.wallNs = wall.elapsedNs();
    return record;
}

ChaosReport
runChaos(const ChaosOptions &options)
{
    GMLAKE_ASSERT(options.trials >= 1, "chaos soak needs >= 1 trial");
    const auto &names = sweepScenarioNames();
    if (std::find(names.begin(), names.end(), options.scenario) ==
        names.end())
        GMLAKE_FATAL("unknown chaos scenario: ", options.scenario,
                     " (available: smoke, train, colocate)");
    // Validate the spec once, loudly, before the soak: a malformed
    // spec is user error, not K identical internal-error trials.
    if (!options.faultSpec.empty())
        (void)parseChaosPlan(options.faultSpec);

    const Stopwatch wall;
    ChaosReport report;
    report.scenario = options.scenario;
    report.allocator = allocatorKindName(options.kind);
    report.faultSpec = options.faultSpec;
    report.faultSeed = options.faultSeed;
    report.workloadSeed = options.workloadSeed;
    report.trials.reserve(options.trials);
    for (std::size_t k = 0; k < options.trials; ++k) {
        // A one-trial run uses the base seed verbatim, so any trial
        // of a soak replays as `--fault-seed <its seed> --soak 1`.
        const std::uint64_t trialSeed =
            options.trials > 1 ? deriveSeed(options.faultSeed, k)
                               : options.faultSeed;
        report.trials.push_back(runChaosTrial(options, trialSeed));
    }
    report.totalWallNs = wall.elapsedNs();
    return report;
}

std::string
chaosReplayCommand(const ChaosOptions &options, std::uint64_t trialSeed)
{
    const ChaosOptions defaults;
    std::ostringstream cmd;
    cmd << "gmlake_sim chaos " << options.scenario << " --fault-seed "
        << trialSeed << " --soak 1";
    if (options.kind != defaults.kind)
        cmd << " --allocator " << allocatorKindName(options.kind);
    if (options.workloadSeed != defaults.workloadSeed)
        cmd << " --seed " << options.workloadSeed;
    if (options.iterations != defaults.iterations)
        cmd << " --iterations " << options.iterations;
    if (options.killChance != defaults.killChance) {
        // Shortest text that parses back to the same double.
        std::array<char, 32> text{};
        const auto end = std::to_chars(text.data(),
                                       text.data() + text.size(),
                                       options.killChance).ptr;
        cmd << " --kill-chance " << std::string_view(text.data(), end);
    }
    if (!options.faultSpec.empty())
        cmd << " --faults '" << options.faultSpec << "'";
    return cmd.str();
}

std::size_t
ChaosReport::failures() const
{
    return static_cast<std::size_t>(std::count_if(
        trials.begin(), trials.end(),
        [](const ChaosTrialRecord &t) { return !t.auditPassed; }));
}

int
ChaosReport::exitCode() const
{
    int code = kChaosExitClean;
    for (const ChaosTrialRecord &trial : trials) {
        if (!trial.auditPassed)
            return kChaosExitInternal;
        if (trial.result.abortedSessions > 0)
            code = kChaosExitAborted;
        else if (trial.oomSessions > 0 && code == kChaosExitClean)
            code = kChaosExitOom;
    }
    return code;
}

void
writeChaosJson(const ChaosReport &report,
               const ChaosOptions &options, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        GMLAKE_FATAL("cannot open JSON for writing: ", path);
    out << "{\n"
        << "  \"scenario\": \"" << report.scenario << "\",\n"
        << "  \"mode\": \"chaos\",\n"
        << "  \"allocator\": \"" << report.allocator << "\",\n"
        << "  \"config\": {"
        << "\"workload_seed\": " << report.workloadSeed << ", "
        << "\"fault_seed\": " << report.faultSeed << ", "
        << "\"fault_spec\": \"" << report.faultSpec << "\", "
        << "\"soak\": " << report.trials.size() << ", "
        << "\"iterations\": " << options.iterations << ", "
        << "\"kill_chance\": " << options.killChance << "},\n"
        << "  \"exit_code\": " << report.exitCode() << ",\n"
        << "  \"failures\": " << report.failures() << ",\n"
        << "  \"total_wall_ns\": " << report.totalWallNs << ",\n"
        << "  \"trials\": [";
    bool first = true;
    for (const ChaosTrialRecord &t : report.trials) {
        out << (first ? "" : ",") << "\n    {"
            << "\"fault_seed\": " << t.faultSeed << ", "
            << "\"audit_passed\": "
            << (t.auditPassed ? "true" : "false") << ", "
            << "\"internal_error\": "
            << (t.internalError ? "true" : "false") << ", "
            << "\"oom_sessions\": " << t.oomSessions << ", "
            << "\"scripted_kills\": " << t.scriptedKills << ", "
            << "\"capacity_lost_bytes\": " << t.capacityLost << ", ";
        writeJsonFields(out, runResultFields(t.result));
        out << ", \"wall_ns\": " << t.wallNs << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

} // namespace gmlake::sim
