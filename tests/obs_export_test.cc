/**
 * @file
 * Exporter tests: the Chrome-trace JSON is structurally valid and
 * carries the expected record kinds; the columnar `.gmo` dump
 * round-trips a snapshot exactly and rejects corrupt or truncated
 * files at open.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/export_chrome.hh"
#include "obs/export_columnar.hh"
#include "obs/recorder.hh"
#include "support/logging.hh"

using namespace gmlake;
using namespace gmlake::obs;

namespace
{

/**
 * Minimal recursive-descent JSON acceptor — enough to reject the
 * classic serializer bugs (trailing commas, unbalanced brackets,
 * unescaped strings). CI additionally runs `python -m json.tool`
 * over a real timeline export.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : mText(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return mPos == mText.size();
    }

  private:
    bool
    value()
    {
        if (mPos >= mText.size())
            return false;
        switch (mText[mPos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++mPos; // '{'
        skipWs();
        if (peek() == '}') {
            ++mPos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++mPos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++mPos;
                continue;
            }
            if (peek() == '}') {
                ++mPos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++mPos; // '['
        skipWs();
        if (peek() == ']') {
            ++mPos;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++mPos;
                continue;
            }
            if (peek() == ']') {
                ++mPos;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++mPos;
        while (mPos < mText.size()) {
            const char c = mText[mPos];
            if (c == '\\') {
                mPos += 2;
                continue;
            }
            if (c == '"') {
                ++mPos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: must be escaped
            ++mPos;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = mPos;
        if (peek() == '-')
            ++mPos;
        while (mPos < mText.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    mText[mPos])) ||
                mText[mPos] == '.' || mText[mPos] == 'e' ||
                mText[mPos] == 'E' || mText[mPos] == '+' ||
                mText[mPos] == '-'))
            ++mPos;
        return mPos > start;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p, ++mPos) {
            if (mPos >= mText.size() || mText[mPos] != *p)
                return false;
        }
        return true;
    }

    char
    peek() const
    {
        return mPos < mText.size() ? mText[mPos] : '\0';
    }

    void
    skipWs()
    {
        while (mPos < mText.size() &&
               std::isspace(
                   static_cast<unsigned char>(mText[mPos])))
            ++mPos;
    }

    const std::string &mText;
    std::size_t mPos = 0;
};

/** A snapshot exercising every record kind, run/track table, blob. */
RecorderSnapshot
sampleSnapshot()
{
    Recorder rec;
    rec.beginRun("run-a [gmlake]");
    const std::uint32_t dev = rec.track("device");
    const std::uint32_t mem = rec.track("mem.active");
    rec.span(EvName::devMap, EventCat::device, dev, 100, 50, 2097152,
             0, 1);
    // A chunk run and a map batch carry a chunk count, not bytes.
    rec.span(EvName::devCreateMapRun, EventCat::device, dev, 160, 90,
             12, 0, 2);
    rec.span(EvName::devMapBatch, EventCat::device, dev, 250, 30, 3, 0,
             2);
    rec.instant(EvName::sessionOom, EventCat::engine, dev, 400, 64,
                32, 16);
    rec.counter(mem, 200, 123456);
    const std::uint64_t members[] = {3, 5, 8};
    Event stitch;
    stitch.simTime = 150;
    stitch.track = dev;
    stitch.name = EvName::stitch;
    stitch.kind = EventKind::instant;
    stitch.cat = EventCat::alloc;
    stitch.a0 = 42;
    rec.emitWithBlob(stitch, members, 3);

    rec.beginRun("run-b \"quoted\\name\"");
    const std::uint32_t dev2 = rec.track("device");
    rec.span(EvName::devUnmap, EventCat::device, dev2, 10, 5);
    return rec.snapshot();
}

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

} // namespace

TEST(ObsExport, ChromeTraceIsValidJson)
{
    const RecorderSnapshot snap = sampleSnapshot();
    std::ostringstream out;
    writeChromeTrace(snap, out);
    const std::string json = out.str();

    EXPECT_TRUE(JsonChecker(json).valid())
        << json.substr(0, 400);
    // Container shape plus one record of each Chrome phase.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("memMap"), std::string::npos);
    EXPECT_NE(json.find("\"memCreateMapRun\",\"args\":{\"chunks\":12,"),
              std::string::npos);
    EXPECT_NE(json.find("\"memMapBatch\",\"args\":{\"chunks\":3,"),
              std::string::npos);
    EXPECT_NE(json.find("sessionOom"), std::string::npos);
    // Run labels become process names; embedded quotes and
    // backslashes must arrive escaped, not raw.
    EXPECT_NE(json.find("run-a [gmlake]"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\\name\\\""),
              std::string::npos);
}

TEST(ObsExport, ColumnarRoundTripsExactly)
{
    const RecorderSnapshot snap = sampleSnapshot();
    const std::string path = tempPath("obs_roundtrip.gmo");
    writeColumnarTrace(snap, path);
    EXPECT_TRUE(looksLikeObsTrace(path));

    const RecorderSnapshot back = readColumnarTrace(path);
    ASSERT_EQ(back.events.size(), snap.events.size());
    for (std::size_t i = 0; i < snap.events.size(); ++i) {
        const Event &a = snap.events[i];
        const Event &b = back.events[i];
        EXPECT_EQ(a.simTime, b.simTime) << i;
        EXPECT_EQ(a.dur, b.dur) << i;
        EXPECT_EQ(a.a0, b.a0) << i;
        EXPECT_EQ(a.a1, b.a1) << i;
        EXPECT_EQ(a.a2, b.a2) << i;
        EXPECT_EQ(a.seq, b.seq) << i;
        EXPECT_EQ(a.track, b.track) << i;
        EXPECT_EQ(a.blobOff, b.blobOff) << i;
        EXPECT_EQ(a.blobLen, b.blobLen) << i;
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.cat, b.cat) << i;
    }
    EXPECT_EQ(back.blob, snap.blob);
    EXPECT_EQ(back.dropped, snap.dropped);
    ASSERT_EQ(back.tracks.size(), snap.tracks.size());
    for (std::size_t i = 0; i < snap.tracks.size(); ++i) {
        EXPECT_EQ(back.tracks[i].name, snap.tracks[i].name);
        EXPECT_EQ(back.tracks[i].run, snap.tracks[i].run);
    }
    ASSERT_EQ(back.runs.size(), snap.runs.size());
    for (std::size_t i = 0; i < snap.runs.size(); ++i)
        EXPECT_EQ(back.runs[i], snap.runs[i]);
    std::filesystem::remove(path);
}

TEST(ObsExport, ColumnarRoundTripsAcrossChunks)
{
    // Two and a half chunks: the reader must walk every chunk in
    // order and stop exactly at the footer.
    RecorderSnapshot snap;
    for (std::size_t i = 0; i < kObsChunkEvents * 5 / 2; ++i) {
        Event e;
        e.simTime = i;
        e.a0 = 7 * i;
        e.seq = static_cast<std::uint32_t>(i);
        snap.events.push_back(e);
    }
    const std::string path = tempPath("obs_chunks.gmo");
    writeColumnarTrace(snap, path);
    const RecorderSnapshot back = readColumnarTrace(path);
    ASSERT_EQ(back.events.size(), snap.events.size());
    for (std::size_t i = 0; i < snap.events.size(); ++i) {
        ASSERT_EQ(back.events[i].simTime, i);
        ASSERT_EQ(back.events[i].a0, 7 * i);
        ASSERT_EQ(back.events[i].seq, i);
    }
    std::filesystem::remove(path);
}

TEST(ObsExport, ColumnarRejectsCorruption)
{
    const RecorderSnapshot snap = sampleSnapshot();
    const std::string path = tempPath("obs_corrupt.gmo");
    writeColumnarTrace(snap, path);

    // Flip one byte in the middle of the chunk payload.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto size = static_cast<std::streamoff>(f.tellg());
        f.seekp(size / 2);
        char byte = 0;
        f.seekg(size / 2);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(size / 2);
        f.write(&byte, 1);
    }
    EXPECT_THROW((void)readColumnarTrace(path), FatalError);
    std::filesystem::remove(path);
}

TEST(ObsExport, ColumnarRejectsTruncation)
{
    const RecorderSnapshot snap = sampleSnapshot();
    const std::string path = tempPath("obs_truncated.gmo");
    writeColumnarTrace(snap, path);
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    EXPECT_THROW((void)readColumnarTrace(path), FatalError);
    std::filesystem::remove(path);
}

TEST(ObsExport, ColumnarRejectsOutOfRangeBlobReference)
{
    // 0xFFFFFFFF + 2 wraps to 1 in 32 bits, which would pass a check
    // against the 4-word blob.
    RecorderSnapshot snap;
    snap.blob = {1, 2, 3, 4};
    Event e;
    e.blobOff = 0xFFFFFFFFu;
    e.blobLen = 2;
    snap.events.push_back(e);
    const std::string path = tempPath("obs_bad_blob.gmo");
    writeColumnarTrace(snap, path);
    EXPECT_THROW((void)readColumnarTrace(path), FatalError);
    std::filesystem::remove(path);
}

TEST(ObsExport, LooksLikeObsTraceRejectsOtherFiles)
{
    const std::string path = tempPath("obs_not_a_trace.bin");
    std::ofstream(path) << "definitely not a trace";
    EXPECT_FALSE(looksLikeObsTrace(path));
    EXPECT_FALSE(looksLikeObsTrace(tempPath("obs_missing.gmo")));
    std::filesystem::remove(path);
}
