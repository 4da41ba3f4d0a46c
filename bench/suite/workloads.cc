#include "workloads.hh"

#include <utility>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "workload/generators.hh"
#include "workload/tracegen.hh"

namespace gmlake::bench
{

namespace
{

using namespace gmlake::literals;

/**
 * Rows per workload, each generated from its own derived seed. The
 * host cost per event of one input depends on its seed (pool shapes
 * the allocator walks, request lengths), so each run averages several
 * independent inputs instead of measuring one. Four full-size rows
 * left a 9-11% spread of events_per_s over ten seeds on
 * stress-deep-pool and serve-fleet; eight half-size rows, 3-4%.
 */
constexpr std::uint64_t kRows = 8;

std::unique_ptr<workload::EventSource>
borrow(const workload::Trace *trace)
{
    return std::make_unique<workload::VectorSource>(trace);
}

// ------------------------------------------------------ train-matrix

/**
 * The paper's headline matrix (Section 5): six models at their
 * batch-size sweep under the four memory-reduction strategies, four
 * GPUs with ZeRO-3. Each trace is packed into one section of a `.gmt`
 * file, so replays also exercise the binary decoder.
 */
Inputs
buildTrainMatrix(std::uint64_t seed, Scale scale,
                 const std::string &tmpDir)
{
    struct ModelRows
    {
        const char *model;
        std::vector<int> batches;
    };
    const std::vector<ModelRows> full = {
        {"OPT-1.3B", {64, 128, 192}}, {"GPT-2", {64, 128}},
        {"GLM-10B", {24, 48}},        {"OPT-13B", {16, 32, 48}},
        {"Vicuna-13B", {16, 32, 48}}, {"GPT-NeoX-20B", {24, 48, 72, 84}},
    };
    const std::vector<ModelRows> tiny = {{"OPT-1.3B", {64}},
                                         {"GPT-2", {64}}};
    const char *strategies[] = {"R", "LR", "RO", "LRO"};

    Inputs inputs;
    const std::string path = tmpDir + "/train-matrix.gmt";
    std::vector<std::string> labels;
    {
        workload::GmtWriter writer(path);
        for (const ModelRows &m : scale == Scale::full ? full : tiny) {
            for (const int batch : m.batches) {
                for (const char *strat : strategies) {
                    workload::TrainConfig cfg;
                    cfg.model = workload::findModel(m.model);
                    cfg.strategies = workload::Strategies::parse(strat);
                    cfg.gpus = 4;
                    cfg.batchSize = batch;
                    cfg.iterations = scale == Scale::full ? 8 : 2;
                    cfg.seed = seed;
                    labels.push_back(detail::concat(m.model, "/", strat,
                                                    "/b", batch));
                    const workload::Trace trace =
                        workload::generateTrainingTrace(cfg);
                    workload::VectorSource source(&trace);
                    writer.beginSection(labels.back());
                    writer.append(source);
                }
            }
        }
        writer.finish();
    }
    inputs.gmt = workload::GmtFile::open(path);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        Row row;
        row.label = labels[i];
        row.tenants.push_back(Tenant{
            labels[i], 0, [file = inputs.gmt, i]() {
                return std::unique_ptr<workload::EventSource>(
                    std::make_unique<workload::BinaryTraceSource>(file,
                                                                  i));
            }});
        inputs.rows.push_back(std::move(row));
    }
    return inputs;
}

// -------------------------------------------------- stress-deep-pool

/**
 * Deep-pool stress trace for the allocator hot path. Phase 1 builds
 * and frees 512 modest blocks so the inactive pPool is deep; phase 2
 * keeps a window of large, rarely-repeating requests churning across
 * four streams, so most allocations miss the exact-match fast path
 * and walk the BestFit candidate search. ~3 events per churn op.
 */
workload::Trace
makeStressTrace(std::uint64_t seed, int churnOps)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    constexpr int kStreams = 4;
    constexpr int kPoolBlocks = 512;
    constexpr std::size_t kLiveWindow = 16;

    std::vector<workload::TensorId> pool;
    pool.reserve(kPoolBlocks);
    for (int i = 0; i < kPoolBlocks; ++i) {
        const Bytes size = 2_MiB * rng.uniformInt(1, 16);
        pool.push_back(
            builder.alloc(size, static_cast<StreamId>(i % kStreams)));
        builder.compute(20'000);
    }
    for (const workload::TensorId id : pool)
        builder.free(id);
    builder.streamSync(kAnyStream);

    // Requests span 64-512 MiB, far above any phase-1 block, so
    // serving one means stitching (or splitting) deep into the pool.
    std::vector<workload::TensorId> live;
    live.reserve(kLiveWindow);
    for (int i = 0; i < churnOps; ++i) {
        if (live.size() >= kLiveWindow) {
            const std::size_t victim = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            builder.free(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        const Bytes size = 2_MiB * rng.uniformInt(32, 256);
        const auto stream =
            static_cast<StreamId>(rng.uniformInt(0, kStreams - 1));
        live.push_back(builder.alloc(size, stream));
        builder.compute(50'000);
        if (i % 1024 == 1023)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

Inputs
buildStressDeepPool(std::uint64_t seed, Scale scale, const std::string &)
{
    Inputs inputs;
    inputs.traces.reserve(kRows);
    for (std::uint64_t r = 0; r < kRows; ++r) {
        inputs.traces.push_back(makeStressTrace(
            deriveSeed(seed, r), scale == Scale::full ? 5'000 : 500));
        Row row;
        row.label = detail::concat("stress", r);
        // Exact-fit discipline: the fast path only absorbs exact
        // repeats, so the BestFit and stitch search carries the load.
        row.gmlake.nearMatchTolerance = 0.0;
        row.tenants.push_back(
            Tenant{row.label, 0, [trace = &inputs.traces.back()]() {
                       return borrow(trace);
                   }});
        inputs.rows.push_back(std::move(row));
    }
    return inputs;
}

// ------------------------------------------------------- serve-fleet

/**
 * Rows of three paged-KV serving tenants, generated on the fly and
 * never materialized: millions of uniform block events through the
 * engine's merge loop.
 */
Inputs
buildServeFleet(std::uint64_t seed, Scale scale, const std::string &)
{
    constexpr std::uint64_t kTenants = 3;
    Inputs inputs;
    for (std::uint64_t r = 0; r < kRows; ++r) {
        Row row;
        row.label = detail::concat("fleet", r);
        row.device.capacity = 24_GiB;
        // No memory time series: the replay allocates nothing
        // proportional to the event count.
        row.recordSeries = false;
        for (std::uint64_t t = 0; t < kTenants; ++t) {
            workload::KvServeConfig cfg;
            cfg.model = workload::findModel("OPT-1.3B");
            cfg.maxBatch = 48;
            cfg.requests = scale == Scale::full ? 1'000 : 50;
            cfg.medianPromptTokens = 384;
            cfg.meanGenerateTokens = 160;
            cfg.maxContextTokens = 4096;
            cfg.blockTokens = 64;
            cfg.seed = deriveSeed(seed, r * kTenants + t);
            row.tenants.push_back(Tenant{
                detail::concat("serve", t),
                static_cast<Tick>(t) * Tick{50'000'000}, [cfg]() {
                    return std::unique_ptr<workload::EventSource>(
                        std::make_unique<workload::KvServeSource>(cfg));
                }});
        }
        inputs.rows.push_back(std::move(row));
    }
    return inputs;
}

// --------------------------------------------------- oversub-offload

/**
 * Deterministic heterogeneous split of @p total into @p n chunk-
 * aligned sizes growing linearly (1, 2, ..., n units).
 */
std::vector<Bytes>
residentSplit(Bytes total, int n)
{
    const Bytes units =
        static_cast<Bytes>(n) * static_cast<Bytes>(n + 1) / 2;
    std::vector<Bytes> sizes;
    sizes.reserve(static_cast<std::size_t>(n));
    for (int i = 1; i <= n; ++i)
        sizes.push_back(
            roundUp(total * static_cast<Bytes>(i) / units, 2_MiB));
    return sizes;
}

/**
 * One oversubscription tenant: a resident set of large, long-lived
 * tensors touched phase by phase every iteration, plus transient
 * activations churned inside each phase. The next phase's resident
 * tensor is announced one compute phase ahead (prefetch), so a
 * spilled tensor's H2D can overlap the current phase.
 */
workload::Trace
makeOffloadTenantTrace(std::uint64_t seed, Bytes residentBytes,
                       int residentTensors, int iterations,
                       int transientsPerPhase, Tick phaseNs)
{
    Rng rng(seed);
    workload::TraceBuilder builder;

    std::vector<workload::TensorId> resident;
    resident.reserve(static_cast<std::size_t>(residentTensors));
    for (const Bytes size : residentSplit(residentBytes, residentTensors)) {
        resident.push_back(builder.alloc(size, 0));
        builder.compute(phaseNs / 8);
    }

    std::vector<workload::TensorId> transients;
    for (int iter = 0; iter < iterations; ++iter) {
        for (std::size_t phase = 0; phase < resident.size(); ++phase) {
            builder.prefetch(resident[(phase + 1) % resident.size()]);
            builder.touch(resident[phase]);
            transients.clear();
            for (int t = 0; t < transientsPerPhase; ++t) {
                const Bytes size = 2_MiB * rng.uniformInt(32, 128);
                const auto stream =
                    static_cast<StreamId>(1 + rng.uniformInt(0, 2));
                transients.push_back(builder.alloc(size, stream));
                builder.compute(phaseNs / (2 * transientsPerPhase));
            }
            builder.compute(phaseNs / 2);
            for (const workload::TensorId id : transients)
                builder.free(id);
        }
        builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

/**
 * Rows of four tenants x 12 GiB resident on a 32 GiB device (1.5x
 * oversubscribed): gmlake only keeps every tenant by spilling idle
 * resident sets to the host tier and faulting them back.
 */
Inputs
buildOversubOffload(std::uint64_t seed, Scale scale, const std::string &)
{
    constexpr std::uint64_t kTenants = 4;
    Inputs inputs;
    inputs.traces.reserve(kRows * kTenants);
    for (std::uint64_t r = 0; r < kRows; ++r) {
        Row row;
        row.label = detail::concat("oversub", r);
        row.device.capacity = 32_GiB;
        row.hostTier = true;
        for (std::uint64_t t = 0; t < kTenants; ++t) {
            inputs.traces.push_back(makeOffloadTenantTrace(
                deriveSeed(seed, r * kTenants + t), 12_GiB,
                /*residentTensors=*/6, scale == Scale::full ? 5 : 1,
                /*transientsPerPhase=*/3, /*phaseNs=*/Tick{40'000'000}));
            row.tenants.push_back(Tenant{
                detail::concat("tenant", t),
                static_cast<Tick>(t) * Tick{25'000'000},
                [trace = &inputs.traces.back()]() { return borrow(trace); }});
        }
        inputs.rows.push_back(std::move(row));
    }
    return inputs;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"train-matrix",
         "the paper's headline matrix of 68 LLM fine-tuning traces, "
         "replayed from .gmt; host time in core, vmm and decode",
         buildTrainMatrix},
        {"stress-deep-pool",
         "deep pools and exact-fit churn: host time is core's "
         "BestFit and stitch search; decode, engine and offload idle",
         buildStressDeepPool},
        {"serve-fleet",
         "streamed paged-KV serving tenants: generator and engine "
         "merge loop dominate, vmm is below 1% of the run",
         buildServeFleet},
        {"oversub-offload",
         "1.5x oversubscribed tenants with a host tier: the only "
         "workload running offload; vmm remaps from spills dominate",
         buildOversubOffload},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    for (const WorkloadSpec &spec : workloads()) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

} // namespace gmlake::bench
