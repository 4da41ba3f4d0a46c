#include "sim/probe.hh"

#include <algorithm>
#include <ostream>
#include <vector>

#include "obs/export_chrome.hh"
#include "obs/ledger.hh"
#include "obs/recorder.hh"
#include "sim/sweep.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace gmlake::sim
{

namespace
{

void
reportSummary(std::ostream &out, const obs::RecorderSnapshot &snap,
              const obs::Ledger &ledger, std::size_t topAllocs)
{
    out << "ledger: " << ledger.allocCount() << " allocation(s), "
        << ledger.bindingCount() << " tensor binding(s), "
        << snap.events.size() << " event(s)";
    if (snap.dropped != 0)
        out << " (" << snap.dropped << " dropped)";
    out << "\n";

    // Most device-expensive allocations first: where stitching,
    // spilling or fresh reserves actually cost device time.
    std::vector<const obs::AllocProvenance *> ranked;
    ranked.reserve(ledger.allocCount());
    for (const auto &[id, provenance] : ledger.allocs())
        ranked.push_back(&provenance);
    std::sort(ranked.begin(), ranked.end(),
              [](const obs::AllocProvenance *a,
                 const obs::AllocProvenance *b) {
                  if (a->deviceCostNs != b->deviceCostNs)
                      return a->deviceCostNs > b->deviceCostNs;
                  return a->allocId < b->allocId;
              });
    if (ranked.size() > topAllocs)
        ranked.resize(topAllocs);
    if (!ranked.empty())
        out << "top allocations by attributed device-API time:\n";
    for (const obs::AllocProvenance *p : ranked) {
        out << "  alloc #" << p->allocId << ": "
            << p->originLabel() << ", "
            << formatBytes(p->requested) << " requested, "
            << p->deviceCalls << " device calls, "
            << formatTime(p->deviceCostNs) << " attributed\n";
    }
}

} // namespace

ProbeSummary
runProbe(const ProbeOptions &options, std::ostream &out)
{
    GMLAKE_ASSERT(!(options.tensor && options.atTick),
                  "probe accepts --tensor or --at, not both");
    const SweepScenario scenario = buildSweepScenario(
        options.scenario, options.seed, options.iterations);

    obs::Recorder recorder;
    recorder.beginRun("probe:" + scenario.name);
    recorder.activate();
    Rig rig(options.kind, scenario.rigOptions());
    const MultiRunResult multi =
        rig.run(borrowSessions(scenario.tenants));
    recorder.deactivate();

    const obs::RecorderSnapshot snap = recorder.snapshot();
    const obs::Ledger ledger = obs::Ledger::build(snap);

    if (!options.timelinePath.empty()) {
        obs::writeChromeTrace(snap, options.timelinePath);
        out << "timeline written to " << options.timelinePath
            << "\n";
    }

    out << "probe " << scenario.name << " ("
        << allocatorKindName(options.kind) << ", seed "
        << options.seed << ")\n";
    if (options.tensor)
        ledger.reportTensor(out, *options.tensor);
    else if (options.atTick)
        ledger.reportAt(out, *options.atTick);
    else
        reportSummary(out, snap, ledger, options.topAllocs);

    ProbeSummary summary;
    summary.run = multi.combined;
    summary.allocsRecorded = ledger.allocCount();
    summary.bindingsRecorded = ledger.bindingCount();
    summary.eventsRecorded = snap.events.size();
    summary.eventsDropped = snap.dropped;
    return summary;
}

} // namespace gmlake::sim
