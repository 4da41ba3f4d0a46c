/**
 * @file
 * `gmlake_sim probe` — allocation provenance queries.
 *
 * A probe run replays a sweep scenario ("smoke", "train",
 * "colocate") with the observability recorder active, builds the
 * obs::Ledger from the recorded event stream, and answers one of
 * two questions against it:
 *
 *   --tensor T   which allocations backed tensor T over the run,
 *                which pBlocks back each one, how they were
 *                obtained (fresh reserve / cache reuse / stitch of
 *                N / post-spill remap), and the device-API time
 *                attributed to each;
 *   --at TICK    every tensor live at simulated time TICK, with
 *                the same provenance per binding.
 *
 * Without a selector, a summary of the ledger (allocation and
 * binding counts, top device-cost allocations) is printed.
 */

#ifndef GMLAKE_SIM_PROBE_HH
#define GMLAKE_SIM_PROBE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "sim/runner.hh"

namespace gmlake::sim
{

struct ProbeOptions
{
    /** Sweep scenario name ("smoke", "train", "colocate"). */
    std::string scenario = "smoke";
    AllocatorKind kind = AllocatorKind::gmlake;
    std::uint64_t seed = 42;
    /** Scenario scale override; <= 0 keeps the scenario default. */
    int iterations = 0;
    /** Query selectors; at most one may be set. */
    std::optional<std::uint64_t> tensor;
    std::optional<std::uint64_t> atTick;
    /** Also export the recorded timeline (Chrome-trace JSON). */
    std::string timelinePath;
    /** Top-N allocations listed by the summary report. */
    std::size_t topAllocs = 5;
};

struct ProbeSummary
{
    RunResult run;
    std::size_t allocsRecorded = 0;
    std::size_t bindingsRecorded = 0;
    std::uint64_t eventsRecorded = 0;
    std::uint64_t eventsDropped = 0;
};

/** Replay, build the ledger, print the report on @p out. */
ProbeSummary runProbe(const ProbeOptions &options,
                      std::ostream &out);

} // namespace gmlake::sim

#endif // GMLAKE_SIM_PROBE_HH
