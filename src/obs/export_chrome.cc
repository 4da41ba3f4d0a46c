#include "obs/export_chrome.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "support/logging.hh"
#include "support/strings.hh"

namespace gmlake::obs
{

namespace
{

/** Simulated ns → trace µs with sub-µs precision preserved. */
std::string
micros(std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

/** Per-event argument labels (up to three, nullptr = omit). */
struct ArgNames
{
    const char *a0 = nullptr;
    const char *a1 = nullptr;
    const char *a2 = nullptr;
};

ArgNames
argNames(EvName name)
{
    switch (name) {
      case EvName::devAddressReserve:
      case EvName::devCreate:
      case EvName::devRelease:
      case EvName::devMap:
      case EvName::devMallocNative:
      case EvName::devFreeNative:
      case EvName::devCopyD2H:
      case EvName::devCopyH2D:
        return {"bytes", "fault", "token"};
      case EvName::devMapBatch:
      case EvName::devUnmap:
      case EvName::devSetAccess:
      case EvName::devCreateRun:
      case EvName::devCreateMapRun:
      case EvName::devReleaseRun:
      case EvName::devUnmapReleaseRun:
        return {"chunks", "fault", "token"};
      case EvName::devAddressFree:
      case EvName::devCopyWait:
        return {"arg", "fault", "token"};
      case EvName::alloc:
        return {"alloc_id", "requested", "token"};
      case EvName::allocPhase:
        return {"phase", "rounded", "token"};
      case EvName::stitch:
        return {"sblock", "bytes", "token"};
      case EvName::split:
        return {"pblock", "left", "right"};
      case EvName::stitchFree:
        return {"sblock", "bytes", nullptr};
      case EvName::reclaimRung:
        return {"attempt", "reclaimed", "token"};
      case EvName::releaseCached:
        return {"bytes", nullptr, nullptr};
      case EvName::spill:
      case EvName::faultIn:
        return {"pblock", "bytes", "token"};
      case EvName::sessionStart:
      case EvName::sessionAborted:
        return {"session", nullptr, nullptr};
      case EvName::sessionOom:
        return {"requested", "largest_free", "evictable"};
      case EvName::iterationMark:
        return {"iterations", nullptr, nullptr};
      case EvName::tensorBind:
        return {"tensor", "alloc_id", "bytes"};
      case EvName::tensorFree:
        return {"tensor", "alloc_id", nullptr};
      case EvName::counterSample:
        return {"value", nullptr, nullptr};
      case EvName::holeHistogram:
        return {"buckets", "largest_hole", "hole_count"};
      case EvName::count_: break;
    }
    return {};
}

void
writeArgs(std::ostream &out, const RecorderSnapshot &snap,
          const Event &e)
{
    const ArgNames names = argNames(e.name);
    out << "\"args\":{";
    bool first = true;
    auto field = [&](const char *key, std::uint64_t value) {
        if (key == nullptr)
            return;
        if (!first)
            out << ',';
        first = false;
        out << '"' << key << "\":" << value;
    };
    field(names.a0, e.a0);
    field(names.a1, e.a1);
    field(names.a2, e.a2);
    if (const std::uint64_t *blob = snap.blobOf(e)) {
        if (!first)
            out << ',';
        first = false;
        out << "\"list\":[";
        for (std::uint32_t i = 0; i < e.blobLen; ++i) {
            if (i != 0)
                out << ',';
            out << blob[i];
        }
        out << ']';
    }
    out << '}';
}

} // namespace

void
writeChromeTrace(const RecorderSnapshot &snap, std::ostream &out)
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",";
        first = false;
        out << "\n";
    };

    for (std::size_t run = 0; run < snap.runs.size(); ++run) {
        sep();
        out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
            << run << ",\"tid\":0,\"args\":{\"name\":\""
            << jsonEscape(snap.runs[run]) << "\"}}";
    }
    for (std::size_t id = 0; id < snap.tracks.size(); ++id) {
        const TrackInfo &track = snap.tracks[id];
        sep();
        out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
            << track.run << ",\"tid\":" << id
            << ",\"args\":{\"name\":\"" << jsonEscape(track.name)
            << "\"}}";
    }

    static const TrackInfo kNoTrack;
    for (const Event &e : snap.events) {
        const TrackInfo &track = e.track < snap.tracks.size()
                                     ? snap.tracks[e.track]
                                     : kNoTrack;
        sep();
        out << "{\"pid\":" << track.run << ",\"tid\":" << e.track
            << ",\"ts\":" << micros(e.simTime) << ",\"cat\":\""
            << evCat(e.cat) << "\",";
        switch (e.kind) {
          case EventKind::span:
            out << "\"ph\":\"X\",\"dur\":" << micros(e.dur)
                << ",\"name\":\"" << evName(e.name) << "\",";
            writeArgs(out, snap, e);
            break;
          case EventKind::instant:
            out << "\"ph\":\"i\",\"s\":\"t\",\"name\":\""
                << evName(e.name) << "\",";
            writeArgs(out, snap, e);
            break;
          case EventKind::counter:
            // Counter name = track name so each counter gets its
            // own Perfetto counter track.
            out << "\"ph\":\"C\",\"name\":\""
                << jsonEscape(track.name)
                << "\",\"args\":{\"value\":" << e.a0 << '}';
            break;
        }
        out << '}';
    }
    out << "\n]}\n";
}

void
writeChromeTrace(const RecorderSnapshot &snap,
                 const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        GMLAKE_FATAL("cannot open timeline file '", path,
                     "' for writing");
    writeChromeTrace(snap, out);
    out.flush();
    if (!out)
        GMLAKE_FATAL("short write to timeline file '", path, "'");
}

void
writeChromeTrace(const Recorder &recorder, const std::string &path)
{
    writeChromeTrace(recorder.snapshot(), path);
}

} // namespace gmlake::obs
