/**
 * @file
 * Fuzz-lite robustness corpus over the trace formats: a seeded,
 * deterministic sweep of truncations and bit flips applied to a
 * generated text trace, its packed `.gmt` twin and a `.gmo` recorder
 * dump. The property is the loader contract, not any particular
 * diagnostic — every mutated input either loads (the text format
 * tolerates benign whitespace / comment damage) or is rejected with
 * FatalError/PanicError. Nothing may crash, hang, or replay silently
 * different data: a `.gmt` whose event payload was tampered with must
 * be rejected via the per-chunk payload hash, and a mutated `.gmo`
 * must throw FatalError or load the identical snapshot. Both are
 * schemas over one container (support/container.hh), so this corpus
 * covers its one validator twice. Forged `.gmo` footers, each with
 * the footer hash recomputed after one edit, pin that every length is
 * checked against the bytes left before anything is allocated. The
 * same seeded mutations run over the two spec parsers, FaultPlan::parse
 * (`--faults`) and parseGridSpec (`--grid`): every mutated spec
 * parses or throws FatalError, and every plan that parses drives a
 * FaultInjector.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export_columnar.hh"
#include "sim/sweep.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/fault_injector.hh"
#include "workload/binary_trace.hh"
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
    return testing::TempDir() + "gmlake_trace_fuzz_" +
           std::to_string(::getpid()) + "_" + name;
}

struct ScopedFile
{
    explicit ScopedFile(std::string p) : path(std::move(p)) {}
    ~ScopedFile() { std::remove(path.c_str()); }
    std::string path;
};

/** Small but representative generated trace (all event kinds). */
const Trace &
corpusTrace()
{
    static const Trace trace = [] {
        TrainConfig cfg;
        cfg.model = findModel("GPT-2");
        cfg.gpus = 1;
        cfg.batchSize = 2;
        cfg.iterations = 2;
        return generateTrainingTrace(cfg);
    }();
    return trace;
}

std::string
corpusText()
{
    std::stringstream buffer;
    corpusTrace().save(buffer);
    return buffer.str();
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

/**
 * The loader contract for one text mutation: Trace::load either
 * returns a validated trace or throws the project's fatal/panic
 * exceptions. Anything else (std::bad_alloc, segfault, silent
 * partial parse past validate()) fails the test.
 */
void
expectTextContract(const std::string &mutated, const char *what)
{
    std::stringstream in(mutated);
    try {
        const Trace loaded = Trace::load(in);
        loaded.validate();
    } catch (const FatalError &) {
    } catch (const PanicError &) {
    } catch (...) {
        FAIL() << what << ": escaped a non-gmlake exception";
    }
}

/** Same contract for the binary format: open + full decode walk. */
void
expectGmtContract(const std::string &path, const char *what)
{
    try {
        BinaryTraceSource source(path);
        while (source.peek() != nullptr)
            source.advance();
    } catch (const FatalError &) {
    } catch (const PanicError &) {
    } catch (...) {
        FAIL() << what << ": escaped a non-gmlake exception";
    }
}

/** Small `.gmo` corpus: every kind and category, blobs, two runs. */
const obs::RecorderSnapshot &
corpusSnapshot()
{
    static const obs::RecorderSnapshot snap = [] {
        obs::RecorderSnapshot s;
        Rng rng(77);
        for (int i = 0; i < 48; ++i)
            s.blob.push_back(rng.uniformInt(0, 1u << 30));
        s.runs = {"train [gmlake]", "serve [caching]"};
        for (std::uint32_t t = 0; t < 6; ++t)
            s.tracks.push_back({"track-" + std::to_string(t), t % 2});
        for (std::uint32_t i = 0; i < 240; ++i) {
            obs::Event e;
            e.simTime = 1000 * i + rng.uniformInt(0, 999);
            e.dur = rng.uniformInt(0, 5000);
            e.a0 = rng.uniformInt(0, 1u << 31);
            e.a1 = i;
            e.a2 = ~std::uint64_t{i};
            e.seq = i;
            e.track = i % 6;
            if (i % 5 == 0) {
                e.blobLen = static_cast<std::uint32_t>(
                    rng.uniformInt(1, 8));
                e.blobOff = static_cast<std::uint32_t>(
                    rng.uniformInt(0, 48 - e.blobLen));
            }
            e.name = static_cast<obs::EvName>(i % 10);
            e.kind = static_cast<obs::EventKind>(i % 3);
            e.cat = static_cast<obs::EventCat>(i % 5);
            s.events.push_back(e);
        }
        s.dropped = 3;
        return s;
    }();
    return snap;
}

bool
sameEvent(const obs::Event &a, const obs::Event &b)
{
    return a.simTime == b.simTime && a.dur == b.dur && a.a0 == b.a0 &&
           a.a1 == b.a1 && a.a2 == b.a2 && a.seq == b.seq &&
           a.track == b.track && a.blobOff == b.blobOff &&
           a.blobLen == b.blobLen && a.name == b.name &&
           a.kind == b.kind && a.cat == b.cat;
}

bool
sameSnapshot(const obs::RecorderSnapshot &a,
             const obs::RecorderSnapshot &b)
{
    if (a.events.size() != b.events.size() || a.blob != b.blob ||
        a.runs != b.runs || a.dropped != b.dropped ||
        a.tracks.size() != b.tracks.size())
        return false;
    for (std::size_t i = 0; i < a.tracks.size(); ++i) {
        if (a.tracks[i].name != b.tracks[i].name ||
            a.tracks[i].run != b.tracks[i].run)
            return false;
    }
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        if (!sameEvent(a.events[i], b.events[i]))
            return false;
    }
    return true;
}

/**
 * The `.gmo` contract is stricter than the others: a mutated dump
 * throws FatalError or loads the very snapshot that was written.
 */
void
expectGmoContract(const std::string &path, const char *what)
{
    try {
        const obs::RecorderSnapshot got = obs::readColumnarTrace(path);
        EXPECT_TRUE(sameSnapshot(got, corpusSnapshot()))
            << what << ": loaded a different snapshot";
    } catch (const FatalError &) {
    } catch (...) {
        FAIL() << what << ": escaped a non-FatalError exception";
    }
}

/**
 * Overwrite @p size bytes at @p at with @p value, then recompute the
 * footer hash (FNV-1a 64 over [footerOffset, trailer)) so the edit
 * itself is the only defect left for the reader to find.
 */
std::vector<char>
forgeGmo(std::vector<char> bytes, std::size_t at, std::uint64_t value,
         std::size_t size)
{
    std::memcpy(bytes.data() + at, &value, size);
    const std::size_t trailer = bytes.size() - 32;
    std::uint64_t footerOffset = 0;
    std::memcpy(&footerOffset, bytes.data() + trailer, 8);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = footerOffset; i < trailer; ++i) {
        hash ^= static_cast<std::uint8_t>(bytes[i]);
        hash *= 0x100000001b3ULL;
    }
    std::memcpy(bytes.data() + trailer + 16, &hash, 8);
    return bytes;
}

} // namespace

TEST(TraceFuzz, TextTruncationNeverCrashes)
{
    const std::string text = corpusText();
    ASSERT_GT(text.size(), 64u);
    // Every prefix at a deterministic stride, plus the tight tail.
    for (std::size_t len = 0; len < text.size();
         len += (text.size() > 4096 ? 101 : 7)) {
        expectTextContract(text.substr(0, len), "truncation");
    }
    for (std::size_t back = 1; back <= 32; ++back)
        expectTextContract(text.substr(0, text.size() - back),
                           "tail truncation");
}

TEST(TraceFuzz, TextBitFlipsNeverCrash)
{
    const std::string text = corpusText();
    Rng rng(2024);
    for (int round = 0; round < 400; ++round) {
        std::string mutated = text;
        const std::size_t flips = rng.uniformInt(1, 4);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t at =
                rng.uniformInt(0, mutated.size() - 1);
            mutated[at] = static_cast<char>(
                mutated[at] ^
                static_cast<char>(1u << rng.uniformInt(0, 7)));
        }
        expectTextContract(mutated, "bit flip");
    }
}

TEST(TraceFuzz, GmtTruncationNeverCrashes)
{
    ScopedFile whole(scratchPath("trunc_src.gmt"));
    packTrace(corpusTrace(), whole.path, "fuzz");
    const std::vector<char> bytes = readAll(whole.path);
    ASSERT_GT(bytes.size(), 128u);

    ScopedFile cut(scratchPath("trunc_cut.gmt"));
    const std::size_t stride = bytes.size() > 8192 ? 257 : 13;
    for (std::size_t len = 0; len < bytes.size(); len += stride) {
        writeAll(cut.path,
                 std::vector<char>(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           len)));
        expectGmtContract(cut.path, "gmt truncation");
    }
    for (std::size_t back = 1; back <= 32; ++back) {
        writeAll(cut.path,
                 std::vector<char>(bytes.begin(),
                                   bytes.end() -
                                       static_cast<std::ptrdiff_t>(
                                           back)));
        expectGmtContract(cut.path, "gmt tail truncation");
    }
}

TEST(TraceFuzz, GmtBitFlipsNeverCrash)
{
    ScopedFile whole(scratchPath("flip_src.gmt"));
    packTrace(corpusTrace(), whole.path, "fuzz");
    const std::vector<char> bytes = readAll(whole.path);

    ScopedFile flipped(scratchPath("flip_mut.gmt"));
    Rng rng(4242);
    for (int round = 0; round < 300; ++round) {
        std::vector<char> mutated = bytes;
        const std::size_t at = rng.uniformInt(0, mutated.size() - 1);
        mutated[at] = static_cast<char>(
            mutated[at] ^
            static_cast<char>(1u << rng.uniformInt(0, 7)));
        writeAll(flipped.path, mutated);
        expectGmtContract(flipped.path, "gmt bit flip");
    }
}

TEST(TraceFuzz, GmtPayloadTamperIsRejectedLoudly)
{
    ScopedFile file(scratchPath("tamper.gmt"));
    packTrace(corpusTrace(), file.path, "fuzz");
    std::vector<char> bytes = readAll(file.path);

    // The first chunk starts right after the 16-byte file header:
    // u32 count · u32 payloadHash · columns. Flip one payload byte
    // past the 8-byte chunk header; the footer hash does not cover
    // it, so only the v2 per-chunk hash can catch this.
    const std::size_t target = 16 + 8 + 3;
    ASSERT_LT(target, bytes.size());
    bytes[target] = static_cast<char>(bytes[target] ^ 0x10);
    writeAll(file.path, bytes);

    EXPECT_THROW(
        {
            BinaryTraceSource source(file.path);
            while (source.peek() != nullptr)
                source.advance();
        },
        FatalError);
}

TEST(TraceFuzz, UnmutatedCorpusStillLoadsEquivalently)
{
    // Sanity anchor for the whole suite: the pristine corpus loads
    // from both formats with identical events.
    const Trace &original = corpusTrace();
    std::stringstream buffer;
    original.save(buffer);
    const Trace reloaded = Trace::load(buffer);
    ASSERT_EQ(reloaded.size(), original.size());

    ScopedFile file(scratchPath("pristine.gmt"));
    packTrace(original, file.path, "fuzz");
    BinaryTraceSource source(file.path);
    std::size_t i = 0;
    while (const Event *e = source.peek()) {
        ASSERT_LT(i, original.size());
        const Event &want = original.events()[i];
        EXPECT_EQ(e->kind, want.kind) << i;
        EXPECT_EQ(e->bytes, want.bytes) << i;
        source.advance();
        ++i;
    }
    EXPECT_EQ(i, original.size());

    ScopedFile dump(scratchPath("pristine.gmo"));
    obs::writeColumnarTrace(corpusSnapshot(), dump.path);
    EXPECT_TRUE(sameSnapshot(obs::readColumnarTrace(dump.path),
                             corpusSnapshot()));
}

TEST(TraceFuzz, GmoTruncationNeverCrashes)
{
    ScopedFile whole(scratchPath("trunc_src.gmo"));
    obs::writeColumnarTrace(corpusSnapshot(), whole.path);
    const std::vector<char> bytes = readAll(whole.path);
    ASSERT_GT(bytes.size(), 4096u);

    ScopedFile cut(scratchPath("trunc_cut.gmo"));
    const std::size_t stride = bytes.size() / 450 + 1;
    for (std::size_t len = 0; len < bytes.size(); len += stride) {
        writeAll(cut.path,
                 std::vector<char>(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           len)));
        expectGmoContract(cut.path, "gmo truncation");
    }
    for (std::size_t back = 1; back <= 50; ++back) {
        writeAll(cut.path,
                 std::vector<char>(bytes.begin(),
                                   bytes.end() -
                                       static_cast<std::ptrdiff_t>(
                                           back)));
        expectGmoContract(cut.path, "gmo tail truncation");
    }
}

TEST(TraceFuzz, GmoBitFlipsNeverCrash)
{
    ScopedFile whole(scratchPath("flip_src.gmo"));
    obs::writeColumnarTrace(corpusSnapshot(), whole.path);
    const std::vector<char> bytes = readAll(whole.path);

    ScopedFile flipped(scratchPath("flip_mut.gmo"));
    Rng rng(4343);
    for (int round = 0; round < 2000; ++round) {
        std::vector<char> mutated = bytes;
        const std::size_t flips = rng.uniformInt(1, 3);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t at =
                rng.uniformInt(0, mutated.size() - 1);
            mutated[at] = static_cast<char>(
                mutated[at] ^
                static_cast<char>(1u << rng.uniformInt(0, 7)));
        }
        writeAll(flipped.path, mutated);
        expectGmoContract(flipped.path, "gmo bit flip");
    }
}

TEST(TraceFuzz, GmoForgedFootersThrowFatalError)
{
    ScopedFile whole(scratchPath("forge_src.gmo"));
    obs::writeColumnarTrace(corpusSnapshot(), whole.path);
    const std::vector<char> bytes = readAll(whole.path);
    std::uint64_t footer = 0;
    std::memcpy(&footer, bytes.data() + bytes.size() - 32, 8);
    const std::size_t blobWords = corpusSnapshot().blob.size();

    // Footer: u64 events · u64 blob words · blob · u32 tracks · …;
    // the trailer's second word is the chunk count.
    struct Forgery
    {
        const char *what;
        std::size_t at;
        std::uint64_t value;
        std::size_t size;
    };
    const Forgery forgeries[] = {
        {"event count 2^60", footer, std::uint64_t{1} << 60, 8},
        {"blob length 2^61+1", footer + 8,
         (std::uint64_t{1} << 61) + 1, 8},
        {"track count 0xFFFFFFFF", footer + 16 + 8 * blobWords,
         0xFFFFFFFFu, 4},
        {"chunk count 2^40", bytes.size() - 24, std::uint64_t{1} << 40,
         8},
    };
    ScopedFile forged(scratchPath("forge_mut.gmo"));
    for (const Forgery &f : forgeries) {
        writeAll(forged.path, forgeGmo(bytes, f.at, f.value, f.size));
        EXPECT_THROW((void)obs::readColumnarTrace(forged.path),
                     FatalError)
            << f.what;
    }
}

// ------------------------------------------------------ spec parsers

namespace
{

/**
 * Seeded mutations of each of @p seeds: every prefix, then @p rounds
 * of one to three edits each — a byte replaced, inserted or deleted
 * (drawn from the spec grammar and a few bytes outside it), or a run
 * of up to 40 digits spliced in, past every 64-bit field.
 */
std::vector<std::string>
mutateSpecs(const std::vector<std::string> &seeds, std::uint64_t seed,
            int rounds)
{
    static constexpr char kBytes[] = "0123456789.,;:=-+eEpnbtKMGTx _\xff";
    Rng rng(seed);
    std::vector<std::string> out;
    for (const std::string &spec : seeds) {
        for (std::size_t len = 0; len <= spec.size(); ++len)
            out.push_back(spec.substr(0, len));
        for (int round = 0; round < rounds; ++round) {
            std::string m = spec;
            const std::size_t edits = rng.uniformInt(1, 3);
            for (std::size_t e = 0; e < edits; ++e) {
                const std::size_t at = rng.uniformInt(0, m.size());
                const char byte = kBytes[rng.uniformInt(
                    0, sizeof(kBytes) - 2)];
                switch (rng.uniformInt(0, 3)) {
                case 0:
                    if (at < m.size())
                        m[at] = byte;
                    break;
                case 1:
                    m.insert(at, 1, byte);
                    break;
                case 2:
                    if (at < m.size())
                        m.erase(at, 1);
                    break;
                default:
                    m.insert(at, std::string(rng.uniformInt(1, 40),
                                             static_cast<char>(
                                                 '0' + rng.uniformInt(
                                                           0, 9))));
                    break;
                }
            }
            out.push_back(m);
        }
    }
    return out;
}

} // namespace

TEST(SpecFuzz, FaultPlansParseOrThrowFatalError)
{
    const auto specs = mutateSpecs(
        {"create:p=0.02;map:n=5,n=9;cap:t=1000000,b=2G",
         "mapbatch:n=4;setaccess:p=0.005,code=oom",
         "copyd2h:p=0.5;copyh2d:n=1K,code=fault",
         "create:n=18446744073709551615;cap:t=9223372036854775807,b=2M"},
        77, 2000);
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (const std::string &spec : specs) {
        SCOPED_TRACE("spec '" + spec + "'");
        vmm::FaultPlan plan;
        try {
            plan = vmm::FaultPlan::parse(spec);
        } catch (const FatalError &) {
            ++rejected;
            continue;
        } catch (...) {
            FAIL() << "escaped a non-FatalError exception";
        }
        ++parsed;
        // A parsed plan must drive an injector.
        EXPECT_FALSE(plan.describe().empty());
        vmm::FaultInjector injector(plan, 1);
        static constexpr vmm::FaultApi kRun[] = {vmm::FaultApi::memCreate,
                                                 vmm::FaultApi::memMap};
        for (std::size_t i = 0; i < vmm::kFaultApiCount; ++i)
            (void)injector.onCall(static_cast<vmm::FaultApi>(i));
        const auto draw = injector.drawRun(kRun, 8);
        EXPECT_LE(draw.passed, 8u);
        EXPECT_EQ(draw.error.has_value(), draw.passed < 8);
        (void)injector.pendingCapacityLoss(1'000'000'000);
        (void)injector.nextLossAt();
    }
    EXPECT_GT(parsed, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(SpecFuzz, SweepGridsParseOrThrowFatalError)
{
    const auto specs = mutateSpecs(
        {"frag=2,16;tol=0,0.125;sblocks=4096;overscribe=4,8;"
         "stitch=on,off",
         "frag=0;tol=1e-3;stitch=off"},
        78, 2000);
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (const std::string &spec : specs) {
        SCOPED_TRACE("grid '" + spec + "'");
        try {
            (void)sim::parseGridSpec(spec);
            ++parsed;
        } catch (const FatalError &) {
            ++rejected;
        } catch (...) {
            FAIL() << "escaped a non-FatalError exception";
        }
    }
    EXPECT_GT(parsed, 100u);
    EXPECT_GT(rejected, 100u);
}
