/**
 * @file
 * OOM post-mortem agreement: when a co-located tenant is OOM-killed,
 * the same post-mortem triple (requested bytes, largest free device
 * extent, evictable bytes) must appear in three places and agree
 * exactly —
 *
 *   1. SessionResult::oomRequestedBytes / oomLargestFree /
 *      oomEvictableBytes,
 *   2. the GMLAKE_WARN log line,
 *   3. the sessionOom instant on the recorded timeline (and hence
 *      the Chrome-trace export).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc/native_allocator.hh"
#include "obs/export_chrome.hh"
#include "obs/recorder.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

} // namespace

TEST(OomPostMortem, LogTimelineAndResultAgree)
{
    vmm::Device dev(smallDevice(64_MiB));
    alloc::NativeAllocator alloc(dev);

    // Tenant a: take 40 MiB, then ask for another 40 MiB -> dies.
    TraceBuilder a;
    a.iterationMark();
    (void)a.alloc(40_MiB);
    a.compute(1'000'000);
    (void)a.alloc(40_MiB);

    // A second tenant so cursors.size() > 1 and the post-mortem goes
    // to the warn channel.
    TraceBuilder b;
    b.iterationMark();
    const auto t = b.alloc(8_MiB);
    b.compute(500'000);
    b.free(t);

    obs::Recorder recorder;
    recorder.beginRun("oom-postmortem");
    recorder.activate();
    std::vector<std::pair<LogLevel, std::string>> captured;
    setLogCapture(&captured);

    SimEngine engine(alloc, dev);
    engine.addSession(Session("victim", a.take()));
    engine.addSession(Session("bystander", b.take()));
    const MultiRunResult multi = engine.run();

    setLogCapture(nullptr);
    recorder.deactivate();

    // 1. The session result carries the post-mortem.
    const SessionResult *victim = multi.find("victim");
    ASSERT_NE(victim, nullptr);
    ASSERT_TRUE(victim->oom);
    EXPECT_EQ(victim->oomRequestedBytes, 40_MiB);
    EXPECT_GT(victim->oomLargestFree, 0u);

    // 2. The warn line reports the same numbers (formatted).
    const std::string *warnLine = nullptr;
    for (const auto &[level, message] : captured) {
        if (level == LogLevel::warn &&
            message.find("OOM-killed") != std::string::npos)
            warnLine = &message;
    }
    ASSERT_NE(warnLine, nullptr)
        << "no OOM-killed warn line captured";
    EXPECT_NE(warnLine->find("session 'victim'"),
              std::string::npos);
    EXPECT_NE(warnLine->find("allocator=" + std::string(
                                 alloc.name())),
              std::string::npos);
    EXPECT_NE(
        warnLine->find("requested=" +
                       formatBytes(victim->oomRequestedBytes)),
        std::string::npos)
        << *warnLine;
    EXPECT_NE(warnLine->find("largest_free_extent=" +
                             formatBytes(victim->oomLargestFree)),
              std::string::npos)
        << *warnLine;
    EXPECT_NE(warnLine->find("evictable=" + formatBytes(
                                 victim->oomEvictableBytes)),
              std::string::npos)
        << *warnLine;

    // 3. The timeline instant mirrors the raw byte values.
    const obs::RecorderSnapshot snap = recorder.snapshot();
    const obs::Event *instant = nullptr;
    for (const obs::Event &e : snap.events) {
        if (e.name == obs::EvName::sessionOom)
            instant = &e;
    }
    ASSERT_NE(instant, nullptr)
        << "no sessionOom instant on the timeline";
    EXPECT_EQ(instant->a0, victim->oomRequestedBytes);
    EXPECT_EQ(instant->a1, victim->oomLargestFree);
    EXPECT_EQ(instant->a2, victim->oomEvictableBytes);
    // The instant sits on the victim's tenant track.
    ASSERT_LT(instant->track, snap.tracks.size());
    EXPECT_NE(snap.tracks[instant->track].name.find("victim"),
              std::string::npos)
        << snap.tracks[instant->track].name;

    // And survives into the Chrome-trace export.
    std::ostringstream json;
    obs::writeChromeTrace(snap, json);
    EXPECT_NE(json.str().find("sessionOom"), std::string::npos);
    EXPECT_NE(json.str().find("\"requested\":" +
                              std::to_string(
                                  victim->oomRequestedBytes)),
              std::string::npos);
}

TEST(OomPostMortem, SingleSessionStaysOnStatusChannel)
{
    vmm::Device dev(smallDevice(64_MiB));
    alloc::NativeAllocator alloc(dev);

    TraceBuilder a;
    a.iterationMark();
    (void)a.alloc(40_MiB);
    (void)a.alloc(40_MiB);

    std::vector<std::pair<LogLevel, std::string>> captured;
    setLogCapture(&captured);
    SimEngine engine(alloc, dev);
    engine.addSession(Session("solo", a.take()));
    const MultiRunResult multi = engine.run();
    setLogCapture(nullptr);

    EXPECT_TRUE(multi.anyOom());
    // A lone trace ending in OOM is often the measured result: the
    // post-mortem is informational, not a warning.
    for (const auto &[level, message] : captured) {
        if (message.find("OOM-killed") != std::string::npos) {
            EXPECT_EQ(level, LogLevel::info) << message;
        }
    }
}
