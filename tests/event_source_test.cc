/**
 * @file
 * EventSource cursor tests: VectorSource is bit-identical to indexed
 * trace iteration (owned and borrowed, with the borrowed-lifetime
 * assert firing loudly in debug builds), MergeSource replays
 * deterministically across resets, the KV-cache serving generator
 * produces valid, seed-deterministic streams (one of them pinned by
 * hash) and keeps the peek() pointer contract, and runSource() over
 * a VectorSource reproduces runTrace() exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/runner.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "workload/event_source.hh"
#include "workload/generators.hh"
#include "workload/model_zoo.hh"
#include "workload/trace.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::workload;

namespace
{

Trace
richTrace()
{
    TraceBuilder tb;
    tb.iterationMark();
    const auto a = tb.alloc(3_MiB, 1);
    const auto b = tb.alloc(512_KiB, 2);
    tb.compute(1'234'567);
    tb.touch(a);
    tb.streamSync(2);
    tb.free(b);
    tb.streamSync(kAnyStream);
    tb.iterationMark();
    const auto c = tb.alloc(7_MiB);
    tb.prefetch(c);
    tb.free(a);
    tb.free(c);
    return tb.take();
}

void
expectSameEvent(const Event &got, const Event &want, std::size_t i)
{
    EXPECT_EQ(got.kind, want.kind) << "event " << i;
    EXPECT_EQ(got.tensor, want.tensor) << "event " << i;
    EXPECT_EQ(got.bytes, want.bytes) << "event " << i;
    EXPECT_EQ(got.computeNs, want.computeNs) << "event " << i;
    EXPECT_EQ(got.stream, want.stream) << "event " << i;
}

/** Drain @p source into a vector of copies. */
std::vector<Event>
drain(EventSource &source)
{
    std::vector<Event> events;
    while (const Event *e = source.peek()) {
        events.push_back(*e);
        source.advance();
    }
    return events;
}

void
expectSameStream(const std::vector<Event> &got,
                 const std::vector<Event> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameEvent(got[i], want[i], i);
}

/** Word-wise FNV-1a over every field of every event. */
std::uint64_t
streamHash(const std::vector<Event> &events)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    for (const Event &e : events) {
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.tensor);
        mix(e.bytes);
        mix(static_cast<std::uint64_t>(e.computeNs));
        mix(e.stream);
    }
    return h;
}

/**
 * Drain @p source checking the peek() contract: repeated peeks hand
 * out one pointer, to an unchanged event, until advance(); past the
 * end, peek() keeps returning nullptr.
 */
std::vector<Event>
drainCheckingPeeks(EventSource &source)
{
    std::vector<Event> events;
    std::size_t moved = 0;
    while (const Event *e = source.peek()) {
        const Event copy = *e;
        const Event *again = source.peek();
        if (again != e || again->kind != copy.kind ||
            again->tensor != copy.tensor || again->bytes != copy.bytes ||
            again->computeNs != copy.computeNs ||
            again->stream != copy.stream)
            ++moved;
        events.push_back(copy);
        source.advance();
    }
    EXPECT_EQ(moved, 0u) << "peek() moved before advance()";
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(source.peek(), nullptr);
    return events;
}

} // namespace

TEST(EventSource, VectorSourceMatchesIndexedIteration)
{
    const Trace trace = richTrace();
    VectorSource source(&trace);
    EXPECT_EQ(source.sizeHint(), trace.size());

    const auto events = drain(source);
    ASSERT_EQ(events.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        expectSameEvent(events[i], trace.events()[i], i);
    EXPECT_EQ(source.peek(), nullptr);
}

TEST(EventSource, VectorSourceOwnedResetReplays)
{
    VectorSource source(richTrace());
    const auto first = drain(source);
    EXPECT_EQ(source.peek(), nullptr);
    source.reset();
    const auto second = drain(source);
    expectSameStream(second, first);
}

TEST(EventSource, MaterializeRoundTrips)
{
    const Trace trace = richTrace();
    VectorSource source(&trace);
    const Trace copy = materialize(source);
    ASSERT_EQ(copy.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        expectSameEvent(copy.events()[i], trace.events()[i], i);
    EXPECT_EQ(copy.stats().allocCount, trace.stats().allocCount);
    EXPECT_EQ(copy.stats().totalAllocBytes,
              trace.stats().totalAllocBytes);
    EXPECT_EQ(copy.stats().iterations, trace.stats().iterations);
}

TEST(EventSource, MergeSourceResetReplays)
{
    const Trace first = richTrace();
    const Trace second = remapTrace(richTrace(), {TensorId{1} << 32, 64});

    std::vector<std::unique_ptr<EventSource>> sources;
    sources.push_back(std::make_unique<VectorSource>(&first));
    sources.push_back(std::make_unique<VectorSource>(&second));
    MergeSource source(std::move(sources));

    const auto firstPass = drain(source);
    EXPECT_FALSE(firstPass.empty());
    source.reset();
    const auto secondPass = drain(source);
    expectSameStream(secondPass, firstPass);
}

#ifndef NDEBUG
TEST(EventSource, BorrowedTraceDestructionFailsLoudly)
{
    // Destroy a borrowed Trace in place (the storage stays alive so
    // the liveness cookie remains readable) and require the cursor
    // to detect the dangling borrow instead of replaying garbage.
    alignas(Trace) unsigned char storage[sizeof(Trace)];
    Trace *trace = new (storage) Trace(richTrace());
    VectorSource source(trace);
    EXPECT_NE(source.peek(), nullptr);
    trace->~Trace();
    EXPECT_THROW(source.peek(), PanicError);
}
#endif

// ------------------------------------------------------- generators

TEST(EventSource, KvServeSourceIsValidAndComplete)
{
    KvServeConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.maxBatch = 8;
    cfg.requests = 64;
    const auto blockBytes = KvServeSource(cfg).blockBytes();
    EXPECT_GT(blockBytes, 0u);

    KvServeSource source(cfg);
    const Trace trace = materialize(source);
    trace.validate(); // every block freed, no double alloc/free

    EXPECT_EQ(source.counters().admitted, cfg.requests);
    EXPECT_EQ(source.counters().served, cfg.requests);
    EXPECT_EQ(source.counters().emitted, trace.size());
    EXPECT_GT(source.counters().blockAllocs, cfg.requests);
    // Every KV allocation is exactly one block.
    for (const Event &e : trace.events()) {
        if (e.kind == EventKind::alloc) {
            EXPECT_EQ(e.bytes, blockBytes);
        }
    }
}

TEST(EventSource, KvServeSourceIsSeedDeterministic)
{
    KvServeConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.maxBatch = 6;
    cfg.requests = 48;

    KvServeSource a(cfg);
    KvServeSource b(cfg);
    const auto stream = drain(a);
    expectSameStream(drain(b), stream);
    // Pinned, so a change that alters the stream the same way on
    // every run cannot pass as deterministic.
    EXPECT_EQ(stream.size(), 10'793u);
    EXPECT_EQ(streamHash(stream), 0x439c429b0eb9626fULL);

    cfg.seed = 1234;
    KvServeSource c(cfg);
    const auto other = drain(c);
    const auto base = [&] {
        a.reset();
        return drain(a);
    }();
    EXPECT_NE(other.size(), 0u);
    // Different seed, different serving day.
    bool differs = other.size() != base.size();
    for (std::size_t i = 0;
         !differs && i < other.size() && i < base.size(); ++i)
        differs = other[i].kind != base[i].kind ||
                  other[i].tensor != base[i].tensor ||
                  other[i].bytes != base[i].bytes;
    EXPECT_TRUE(differs);
}

TEST(EventSource, KvServeSourceResetReplaysIdentically)
{
    KvServeConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.maxBatch = 4;
    cfg.requests = 24;

    KvServeSource source(cfg);
    const auto first = drainCheckingPeeks(source);
    source.reset();
    const auto second = drainCheckingPeeks(source);
    expectSameStream(second, first);
}

// ----------------------------------------------- engine equivalence

TEST(EventSource, RunSourceMatchesRunTrace)
{
    workload::TrainConfig cfg;
    cfg.model = findModel("GPT-2");
    cfg.iterations = 2;
    const Trace trace = generateTrainingTrace(cfg);

    sim::RunResult byTrace, bySource;
    {
        vmm::Device device;
        const auto allocator = sim::makeAllocator(
            sim::AllocatorKind::gmlake, device);
        byTrace = sim::runTrace(*allocator, device, trace, &cfg);
    }
    {
        vmm::Device device;
        const auto allocator = sim::makeAllocator(
            sim::AllocatorKind::gmlake, device);
        bySource = sim::runSource(
            *allocator, device,
            std::make_unique<VectorSource>(&trace), &cfg);
    }

    EXPECT_EQ(bySource.oom, byTrace.oom);
    EXPECT_EQ(bySource.simTime, byTrace.simTime);
    EXPECT_EQ(bySource.peakActive, byTrace.peakActive);
    EXPECT_EQ(bySource.peakReserved, byTrace.peakReserved);
    EXPECT_EQ(bySource.allocCount, byTrace.allocCount);
    EXPECT_EQ(bySource.freeCount, byTrace.freeCount);
    EXPECT_EQ(bySource.iterationsDone, byTrace.iterationsDone);
    EXPECT_EQ(bySource.deviceApiTime, byTrace.deviceApiTime);
}
