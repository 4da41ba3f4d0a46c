/**
 * @file
 * The four fixed benchmark workloads of gmlake_bench.
 *
 * Every workload is generated by this directory from the benchmark
 * seed; the simulator under test only ever sees the generated event
 * streams. The two hand-written generators (deep-pool stress and the
 * oversubscribed offload tenant) are private copies of the registry
 * scenarios they started from, so a change to src/ cannot silently
 * change what the benchmark replays — the pinned input fingerprints
 * in gmlake_bench.cc catch any drift of the generators src/ still
 * provides (training traces, KV-cache serving).
 */

#ifndef GMLAKE_BENCH_SUITE_WORKLOADS_HH
#define GMLAKE_BENCH_SUITE_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/gmlake_config.hh"
#include "vmm/device.hh"
#include "workload/binary_trace.hh"
#include "workload/event_source.hh"
#include "workload/trace.hh"

namespace gmlake::bench
{

/** `full` is the measured size; `tiny` is the smoke-test size. */
enum class Scale
{
    full,
    tiny,
};

/** One session of a row: a fresh cursor per replay, and its arrival. */
struct Tenant
{
    std::string name;
    Tick start = 0;
    std::function<std::unique_ptr<workload::EventSource>()> open;
};

/** One engine run: a fresh device shared by the row's tenants. */
struct Row
{
    std::string label;
    vmm::DeviceConfig device;
    core::GMLakeConfig gmlake;
    /** gmlake replays attach a size-aware host tier; caching never. */
    bool hostTier = false;
    bool recordSeries = true;
    std::vector<Tenant> tenants;
};

/**
 * A workload's generated inputs. Tenants borrow `traces` and share
 * `gmt`, so an Inputs may be moved but must outlive every replay.
 */
struct Inputs
{
    std::vector<Row> rows;
    std::vector<workload::Trace> traces;
    std::shared_ptr<const workload::GmtFile> gmt;
};

struct WorkloadSpec
{
    const char *name;
    /** Why the workload is in the benchmark (one line). */
    const char *why;
    /** Generate the inputs; scratch files go under @p tmpDir. */
    Inputs (*build)(std::uint64_t seed, Scale scale,
                    const std::string &tmpDir);
};

/** The workloads, in run order. */
const std::vector<WorkloadSpec> &workloads();

/** Workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(std::string_view name);

} // namespace gmlake::bench

#endif // GMLAKE_BENCH_SUITE_WORKLOADS_HH
