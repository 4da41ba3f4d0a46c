/**
 * @file
 * Binary columnar trace (`.gmt`) tests: pack/load round-trips are
 * event-for-event identical for every text trace version, the writer
 * streams across chunk boundaries, multi-section files cursor
 * independently, corrupt or truncated files are rejected at open (or
 * first touch) instead of replaying garbage, and a binary replay
 * reproduces the text replay's engine results exactly. Release
 * builds additionally assert the ≥5x loader speedup over the text
 * parser that justifies the format.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "workload/binary_trace.hh"
#include "workload/event_source.hh"
#include "workload/trace.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::workload;

namespace
{

/**
 * Scratch path under the test tmpdir; the pid keeps concurrent test
 * processes sharing one tmpdir off each other's files.
 */
std::string
scratchPath(const std::string &name)
{
    return testing::TempDir() + "gmlake_binary_trace_" +
           std::to_string(::getpid()) + "_" + name;
}

struct ScopedFile
{
    explicit ScopedFile(std::string p) : path(std::move(p)) {}
    ~ScopedFile() { std::remove(path.c_str()); }
    std::string path;
};

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

void
expectSourceEqualsTrace(EventSource &source, const Trace &trace)
{
    std::size_t i = 0;
    while (const Event *e = source.peek()) {
        ASSERT_LT(i, trace.size());
        expectSameEvent(*e, trace.events()[i], i);
        source.advance();
        ++i;
    }
    EXPECT_EQ(i, trace.size());
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(BinaryTrace, PackRoundTripPreservesEvents)
{
    const Trace trace = richTrace();
    ScopedFile file(scratchPath("roundtrip.gmt"));
    packTrace(trace, file.path, "rich");

    EXPECT_TRUE(looksLikeGmtFile(file.path));
    BinaryTraceSource source(file.path);
    EXPECT_EQ(source.sizeHint(), trace.size());
    EXPECT_EQ(source.section().name, "rich");
    EXPECT_EQ(source.section().stats.allocCount,
              trace.stats().allocCount);
    EXPECT_EQ(source.section().stats.totalAllocBytes,
              trace.stats().totalAllocBytes);
    EXPECT_EQ(source.section().stats.maxAllocBytes,
              trace.stats().maxAllocBytes);
    EXPECT_EQ(source.section().stats.iterations,
              trace.stats().iterations);
    expectSourceEqualsTrace(source, trace);
}

TEST(BinaryTrace, PackedBytesArePinned)
{
    // FNV-1a 64 of the bytes packTrace(richTrace()) writes, recorded
    // before `.gmt` became a schema over support/container: no
    // container change may move a `.gmt` byte.
    ScopedFile file(scratchPath("pinned.gmt"));
    packTrace(richTrace(), file.path);
    const std::vector<char> bytes = readAll(file.path);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001b3ULL;
    }
    EXPECT_EQ(bytes.size(), 506u);
    EXPECT_EQ(hash, 0xa80aa5de3d7262eaULL);
}

TEST(BinaryTrace, EveryTextVersionRoundTrips)
{
    // v1 (no streams), v2 (streams), v3 (touch/prefetch) all pack to
    // the same columnar layout and replay event-for-event.
    const std::string texts[] = {
        "gmlake-trace-v1 5\na 1 1048576\nc 5\na 2 2048\nf 1\nf 2\n",
        "gmlake-trace-v2 5\na 1 2097152 2\nc 5\ny 2\ni\nf 1\n",
        [] {
            std::ostringstream out;
            richTrace().save(out);
            return out.str();
        }(),
    };
    int version = 1;
    for (const std::string &text : texts) {
        std::istringstream in(text);
        const Trace trace = Trace::load(in);

        ScopedFile file(scratchPath("v" + std::to_string(version) +
                                    ".gmt"));
        packTrace(trace, file.path);
        BinaryTraceSource source(file.path);
        expectSourceEqualsTrace(source, trace);
        ++version;
    }
}

TEST(BinaryTrace, WriterStreamsAcrossChunkBoundaries)
{
    // A 3-event chunk size forces many chunks; the cursor must walk
    // them seamlessly and reset() must rewind to the first.
    const Trace trace = richTrace();
    ScopedFile file(scratchPath("chunked.gmt"));
    {
        GmtWriter writer(file.path, 3);
        writer.beginSection("chunked");
        VectorSource source(&trace);
        writer.append(source);
        writer.finish();
    }

    BinaryTraceSource source(file.path);
    EXPECT_GT(source.section().chunks, 1u);
    expectSourceEqualsTrace(source, trace);
    source.reset();
    expectSourceEqualsTrace(source, trace);
}

TEST(BinaryTrace, MultiSectionFilesCursorIndependently)
{
    const Trace first = richTrace();
    TraceBuilder tb;
    const auto t = tb.alloc(9_MiB, 4);
    tb.compute(42);
    tb.free(t);
    const Trace second = tb.take();

    ScopedFile file(scratchPath("multi.gmt"));
    {
        GmtWriter writer(file.path);
        writer.beginSection("first");
        VectorSource sourceA(&first);
        writer.append(sourceA);
        writer.beginSection("second");
        VectorSource sourceB(&second);
        writer.append(sourceB);
        writer.finish();
    }

    const auto mapped = GmtFile::open(file.path);
    ASSERT_EQ(mapped->sections().size(), 2u);
    EXPECT_EQ(mapped->sections()[0].name, "first");
    EXPECT_EQ(mapped->sections()[1].name, "second");

    // Interleave two cursors over one mapping.
    BinaryTraceSource a(mapped, 0);
    BinaryTraceSource b(mapped, 1);
    expectSourceEqualsTrace(b, second);
    expectSourceEqualsTrace(a, first);
}

TEST(BinaryTrace, RejectsBadMagic)
{
    const Trace trace = richTrace();
    ScopedFile file(scratchPath("badmagic.gmt"));
    packTrace(trace, file.path);

    auto bytes = readAll(file.path);
    bytes[0] ^= 0x5a;
    writeAll(file.path, bytes);
    EXPECT_FALSE(looksLikeGmtFile(file.path));
    EXPECT_THROW(GmtFile::open(file.path), FatalError);
}

TEST(BinaryTrace, RejectsTruncatedFile)
{
    const Trace trace = richTrace();
    ScopedFile file(scratchPath("truncated.gmt"));
    packTrace(trace, file.path);

    auto bytes = readAll(file.path);
    bytes.resize(bytes.size() / 2);
    writeAll(file.path, bytes);
    EXPECT_THROW(GmtFile::open(file.path), FatalError);
}

TEST(BinaryTrace, RejectsCorruptFooter)
{
    const Trace trace = richTrace();
    ScopedFile file(scratchPath("badfooter.gmt"));
    packTrace(trace, file.path);

    // Flip one byte inside the footer index (between the trailer's
    // footerOffset and the trailer itself): the footer hash in the
    // trailer must catch it.
    auto bytes = readAll(file.path);
    ASSERT_GT(bytes.size(), 40u);
    bytes[bytes.size() - 40] ^= 0x01;
    writeAll(file.path, bytes);
    EXPECT_THROW(GmtFile::open(file.path), FatalError);
}

TEST(BinaryTrace, RejectsTrailingGarbage)
{
    const Trace trace = richTrace();
    ScopedFile file(scratchPath("garbage.gmt"));
    packTrace(trace, file.path);

    auto bytes = readAll(file.path);
    bytes.insert(bytes.end(), 7, '\0');
    writeAll(file.path, bytes);
    EXPECT_THROW(GmtFile::open(file.path), FatalError);
}

TEST(BinaryTrace, RejectsCorruptChunkHeader)
{
    const Trace trace = richTrace();
    ScopedFile file(scratchPath("badchunk.gmt"));
    packTrace(trace, file.path);

    // Inflate the first chunk's event count (u32 at the start of the
    // first section, right after the 16-byte file header): the
    // columns no longer fit the section extent.
    auto bytes = readAll(file.path);
    bytes[16] = static_cast<char>(0xff);
    bytes[17] = static_cast<char>(0xff);
    writeAll(file.path, bytes);
    EXPECT_THROW(
        {
            BinaryTraceSource source(file.path);
            source.peek();
        },
        FatalError);
}

TEST(BinaryTrace, LooksLikeGmtFileSniffsCorrectly)
{
    ScopedFile text(scratchPath("plain.txt"));
    {
        std::ofstream out(text.path);
        richTrace().save(out);
    }
    EXPECT_FALSE(looksLikeGmtFile(text.path));
    EXPECT_FALSE(looksLikeGmtFile(scratchPath("does-not-exist")));

    ScopedFile packed(scratchPath("sniff.gmt"));
    packTrace(richTrace(), packed.path);
    EXPECT_TRUE(looksLikeGmtFile(packed.path));
}

TEST(BinaryTrace, BinaryReplayMatchesTextReplay)
{
    workload::TrainConfig cfg;
    cfg.model = findModel("GPT-2");
    cfg.iterations = 2;
    const Trace trace = generateTrainingTrace(cfg);

    ScopedFile file(scratchPath("replay.gmt"));
    packTrace(trace, file.path);

    sim::RunResult byTrace, byBinary;
    {
        vmm::Device device;
        const auto allocator = sim::makeAllocator(
            sim::AllocatorKind::gmlake, device);
        byTrace = sim::runTrace(*allocator, device, trace);
    }
    {
        vmm::Device device;
        const auto allocator = sim::makeAllocator(
            sim::AllocatorKind::gmlake, device);
        byBinary = sim::runSource(
            *allocator, device,
            std::make_unique<BinaryTraceSource>(file.path));
    }

    EXPECT_EQ(byBinary.oom, byTrace.oom);
    EXPECT_EQ(byBinary.simTime, byTrace.simTime);
    EXPECT_EQ(byBinary.peakActive, byTrace.peakActive);
    EXPECT_EQ(byBinary.peakReserved, byTrace.peakReserved);
    EXPECT_EQ(byBinary.allocCount, byTrace.allocCount);
    EXPECT_EQ(byBinary.freeCount, byTrace.freeCount);
    EXPECT_EQ(byBinary.deviceApiTime, byTrace.deviceApiTime);
}

#ifdef NDEBUG
TEST(BinaryTrace, LoaderBeatsTextParserFiveFold)
{
    // The acceptance bar for the format: decoding packed columns must
    // be at least 5x faster than parsing the text form. Only
    // meaningful with optimization, hence Release-only.
    workload::TrainConfig cfg;
    cfg.model = findModel("GPT-2");
    cfg.iterations = 60; // ~140k events
    const Trace trace = generateTrainingTrace(cfg);

    ScopedFile text(scratchPath("speed.txt"));
    ScopedFile binary(scratchPath("speed.gmt"));
    {
        std::ofstream out(text.path);
        trace.save(out);
    }
    packTrace(trace, binary.path);

    using Clock = std::chrono::steady_clock;
    const auto textStart = Clock::now();
    std::size_t textEvents = 0;
    {
        std::ifstream in(text.path);
        const Trace loaded = Trace::load(in);
        textEvents = loaded.size();
    }
    const auto textNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - textStart)
            .count();

    const auto binaryStart = Clock::now();
    std::size_t binaryEvents = 0;
    Bytes checksum = 0;
    {
        BinaryTraceSource source(binary.path);
        while (const Event *e = source.peek()) {
            checksum += e->bytes;
            ++binaryEvents;
            source.advance();
        }
    }
    const auto binaryNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - binaryStart)
            .count();

    ASSERT_EQ(binaryEvents, textEvents);
    ASSERT_GT(checksum, 0u);
    EXPECT_GE(static_cast<double>(textNs),
              5.0 * static_cast<double>(binaryNs))
        << "text parse " << textNs << " ns vs binary decode "
        << binaryNs << " ns over " << textEvents << " events";
    std::cout << "[ perf   ] " << textEvents << " events: text "
              << textNs / 1'000'000 << " ms, binary "
              << binaryNs / 1'000'000 << " ms ("
              << static_cast<double>(textNs) /
                     static_cast<double>(binaryNs)
              << "x)\n";
}
#endif
