#include "obs/export_columnar.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <vector>

#include "support/container.hh"
#include "support/logging.hh"

namespace gmlake::obs
{

namespace
{

/** Event fields in column order: where each sits, and its width. */
constexpr std::size_t kFields[] = {
    offsetof(Event, simTime), offsetof(Event, dur),
    offsetof(Event, a0),      offsetof(Event, a1),
    offsetof(Event, a2),      offsetof(Event, seq),
    offsetof(Event, track),   offsetof(Event, blobOff),
    offsetof(Event, blobLen), offsetof(Event, name),
    offsetof(Event, kind),    offsetof(Event, cat)};
constexpr std::uint8_t kWidths[] = {
    sizeof(Event::simTime), sizeof(Event::dur),
    sizeof(Event::a0),      sizeof(Event::a1),
    sizeof(Event::a2),      sizeof(Event::seq),
    sizeof(Event::track),   sizeof(Event::blobOff),
    sizeof(Event::blobLen), sizeof(Event::name),
    sizeof(Event::kind),    sizeof(Event::cat)};
constexpr std::size_t kColumns = std::size(kWidths);
constexpr ContainerSchema kSchema{".gmo", "GMOBSEV1", "GMOFOOT1", 2,
                                  kWidths};

} // namespace

void
writeColumnarTrace(const RecorderSnapshot &snap,
                   const std::string &path)
{
    ContainerWriter out(path, kSchema);
    std::vector<std::uint8_t> columns[kColumns];
    const void *bases[kColumns] = {};
    std::uint64_t chunks = 0;
    for (std::size_t begin = 0; begin < snap.events.size();
         begin += kObsChunkEvents, ++chunks) {
        const std::size_t rows =
            std::min(kObsChunkEvents, snap.events.size() - begin);
        for (std::size_t c = 0; c < kColumns; ++c) {
            columns[c].resize(rows * kWidths[c]);
            for (std::size_t i = 0; i < rows; ++i)
                std::memcpy(columns[c].data() + i * kWidths[c],
                            reinterpret_cast<const std::uint8_t *>(
                                &snap.events[begin + i]) +
                                kFields[c],
                            kWidths[c]);
            bases[c] = columns[c].data();
        }
        out.chunk(static_cast<std::uint32_t>(rows), bases);
    }

    out.put(static_cast<std::uint64_t>(snap.events.size()));
    out.put(static_cast<std::uint64_t>(snap.blob.size()));
    for (const std::uint64_t word : snap.blob)
        out.put(word);
    out.put(static_cast<std::uint32_t>(snap.tracks.size()));
    for (const TrackInfo &track : snap.tracks) {
        out.put(track.run);
        out.putString(track.name);
    }
    out.put(static_cast<std::uint32_t>(snap.runs.size()));
    for (const std::string &run : snap.runs)
        out.putString(run);
    out.put(snap.dropped);
    out.finish(chunks);
}

RecorderSnapshot
readColumnarTrace(const std::string &path)
{
    const ContainerFile file(path, kSchema);
    RecorderSnapshot snap;
    ContainerFile::Footer footer = file.footer();
    const auto events = footer.get<std::uint64_t>();
    snap.blob.resize(footer.items(footer.get<std::uint64_t>(), 8));
    for (std::uint64_t &word : snap.blob)
        word = footer.get<std::uint64_t>();
    snap.tracks.resize(footer.items(footer.get<std::uint32_t>(), 8));
    for (TrackInfo &track : snap.tracks) {
        track.run = footer.get<std::uint32_t>();
        track.name = footer.getString();
    }
    snap.runs.resize(footer.items(footer.get<std::uint32_t>(), 4));
    for (std::string &run : snap.runs)
        run = footer.getString();
    snap.dropped = footer.get<std::uint64_t>();
    footer.finish();

    std::uint64_t offset = kContainerHeaderBytes;
    const std::uint8_t *columns[kColumns] = {};
    for (std::uint64_t c = 0; c < file.count(); ++c) {
        const std::size_t first = snap.events.size();
        const std::uint32_t rows = file.chunk(
            offset, file.footerOffset(), events - first, columns);
        snap.events.resize(first + rows);
        for (std::size_t i = 0; i < rows; ++i) {
            Event &e = snap.events[first + i];
            for (std::size_t k = 0; k < kColumns; ++k)
                std::memcpy(reinterpret_cast<std::uint8_t *>(&e) +
                                kFields[k],
                            columns[k] + i * kWidths[k], kWidths[k]);
            if (e.blobLen != 0 &&
                std::uint64_t{e.blobOff} + e.blobLen > snap.blob.size())
                GMLAKE_FATAL("obs trace '", path,
                             "' blob reference out of bounds");
        }
    }
    if (offset != file.footerOffset() || snap.events.size() != events)
        GMLAKE_FATAL("obs trace '", path, "' event count mismatch");
    return snap;
}

bool
looksLikeObsTrace(const std::string &path)
{
    return looksLikeContainer(path, kSchema);
}

} // namespace gmlake::obs
