#include "obs/export_columnar.hh"

#include <cstring>
#include <fstream>
#include <vector>

#include "support/logging.hh"

namespace gmlake::obs
{

namespace
{

constexpr char kMagic[8] = {'G', 'M', 'O', 'B', 'S', 'E', 'V', '1'};
constexpr char kFootMagic[8] = {'G', 'M', 'O', 'F', 'O', 'O',
                                'T', '1'};
constexpr std::uint32_t kVersion = 1;

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n,
      std::uint64_t seed = 1469598103934665603ull)
{
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint32_t
fold(std::uint64_t hash)
{
    return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

/** Append-only byte buffer with raw little-endian POD writes. */
struct Buffer
{
    std::vector<std::uint8_t> bytes;

    template <typename T>
    void
    pod(const T &value)
    {
        const auto *p = reinterpret_cast<const std::uint8_t *>(
            &value);
        bytes.insert(bytes.end(), p, p + sizeof(T));
    }

    template <typename T>
    void
    column(const std::vector<T> &values)
    {
        const auto *p = reinterpret_cast<const std::uint8_t *>(
            values.data());
        bytes.insert(bytes.end(), p, p + values.size() * sizeof(T));
    }

    void
    str(const std::string &text)
    {
        pod(static_cast<std::uint32_t>(text.size()));
        bytes.insert(bytes.end(), text.begin(), text.end());
    }
};

/** Sequential reader over a fully loaded file. */
struct Reader
{
    const std::vector<std::uint8_t> &bytes;
    std::size_t pos = 0;

    void
    need(std::size_t n, const char *what)
    {
        if (pos + n > bytes.size())
            GMLAKE_FATAL("truncated obs trace reading ", what);
    }

    template <typename T>
    T
    pod(const char *what)
    {
        need(sizeof(T), what);
        T value;
        std::memcpy(&value, bytes.data() + pos, sizeof(T));
        pos += sizeof(T);
        return value;
    }

    template <typename T>
    std::vector<T>
    column(std::size_t count, const char *what)
    {
        need(count * sizeof(T), what);
        std::vector<T> values(count);
        std::memcpy(values.data(), bytes.data() + pos,
                    count * sizeof(T));
        pos += count * sizeof(T);
        return values;
    }

    std::string
    str(const char *what)
    {
        const auto len = pod<std::uint32_t>(what);
        need(len, what);
        std::string text(
            reinterpret_cast<const char *>(bytes.data() + pos), len);
        pos += len;
        return text;
    }
};

void
writeChunk(Buffer &out, const std::vector<Event> &events,
           std::size_t begin, std::size_t count)
{
    std::vector<std::uint64_t> simTime, dur, a0, a1, a2;
    std::vector<std::uint32_t> seq, track, blobOff, blobLen;
    std::vector<std::uint16_t> name;
    std::vector<std::uint8_t> kind, cat;
    simTime.reserve(count);
    for (std::size_t i = begin; i < begin + count; ++i) {
        const Event &e = events[i];
        simTime.push_back(e.simTime);
        dur.push_back(e.dur);
        a0.push_back(e.a0);
        a1.push_back(e.a1);
        a2.push_back(e.a2);
        seq.push_back(e.seq);
        track.push_back(e.track);
        blobOff.push_back(e.blobOff);
        blobLen.push_back(e.blobLen);
        name.push_back(static_cast<std::uint16_t>(e.name));
        kind.push_back(static_cast<std::uint8_t>(e.kind));
        cat.push_back(static_cast<std::uint8_t>(e.cat));
    }

    Buffer payload;
    payload.column(simTime);
    payload.column(dur);
    payload.column(a0);
    payload.column(a1);
    payload.column(a2);
    payload.column(seq);
    payload.column(track);
    payload.column(blobOff);
    payload.column(blobLen);
    payload.column(name);
    payload.column(kind);
    payload.column(cat);

    out.pod(static_cast<std::uint32_t>(count));
    out.pod(fold(fnv1a(payload.bytes.data(), payload.bytes.size())));
    out.bytes.insert(out.bytes.end(), payload.bytes.begin(),
                     payload.bytes.end());
}

} // namespace

void
writeColumnarTrace(const RecorderSnapshot &snap,
                   const std::string &path)
{
    Buffer file;
    file.bytes.insert(file.bytes.end(), kMagic, kMagic + 8);
    file.pod(kVersion);
    file.pod(std::uint32_t{0});

    std::uint64_t chunks = 0;
    for (std::size_t begin = 0; begin < snap.events.size();
         begin += kObsChunkEvents) {
        const std::size_t count = std::min(
            kObsChunkEvents, snap.events.size() - begin);
        writeChunk(file, snap.events, begin, count);
        ++chunks;
    }

    Buffer footer;
    footer.pod(static_cast<std::uint64_t>(snap.events.size()));
    footer.pod(chunks);
    footer.pod(static_cast<std::uint64_t>(snap.blob.size()));
    footer.column(snap.blob);
    footer.pod(static_cast<std::uint32_t>(snap.tracks.size()));
    for (const TrackInfo &track : snap.tracks) {
        footer.pod(track.run);
        footer.str(track.name);
    }
    footer.pod(static_cast<std::uint32_t>(snap.runs.size()));
    for (const std::string &run : snap.runs)
        footer.str(run);
    footer.pod(snap.dropped);

    const std::uint64_t footerOffset = file.bytes.size();
    const std::uint64_t footerHash =
        fnv1a(footer.bytes.data(), footer.bytes.size());
    file.bytes.insert(file.bytes.end(), footer.bytes.begin(),
                      footer.bytes.end());
    file.pod(footerOffset);
    file.pod(footerHash);
    file.bytes.insert(file.bytes.end(), kFootMagic, kFootMagic + 8);

    std::ofstream out(path, std::ios::binary);
    if (!out)
        GMLAKE_FATAL("cannot open obs trace '", path,
                     "' for writing");
    out.write(reinterpret_cast<const char *>(file.bytes.data()),
              static_cast<std::streamsize>(file.bytes.size()));
    out.flush();
    if (!out)
        GMLAKE_FATAL("short write to obs trace '", path, "'");
}

RecorderSnapshot
readColumnarTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        GMLAKE_FATAL("cannot open obs trace '", path, "'");
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<std::uint8_t> bytes(size);
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(size));
    if (!in)
        GMLAKE_FATAL("short read from obs trace '", path, "'");

    constexpr std::size_t kTrailer = 8 + 8 + 8;
    if (size < 16 + kTrailer ||
        std::memcmp(bytes.data(), kMagic, 8) != 0 ||
        std::memcmp(bytes.data() + size - 8, kFootMagic, 8) != 0)
        GMLAKE_FATAL("'", path, "' is not an obs trace");

    std::uint32_t version;
    std::memcpy(&version, bytes.data() + 8, 4);
    if (version != kVersion)
        GMLAKE_FATAL("obs trace '", path, "' has version ", version,
                     ", expected ", kVersion);

    std::uint64_t footerOffset, footerHash;
    std::memcpy(&footerOffset, bytes.data() + size - kTrailer, 8);
    std::memcpy(&footerHash, bytes.data() + size - kTrailer + 8, 8);
    const std::size_t footerEnd = size - kTrailer;
    if (footerOffset > footerEnd)
        GMLAKE_FATAL("obs trace '", path,
                     "' footer offset out of bounds");
    if (fnv1a(bytes.data() + footerOffset,
              footerEnd - footerOffset) != footerHash)
        GMLAKE_FATAL("obs trace '", path, "' footer hash mismatch");

    RecorderSnapshot snap;

    Reader footer{bytes, static_cast<std::size_t>(footerOffset)};
    const auto eventCount = footer.pod<std::uint64_t>("events");
    const auto chunkCount = footer.pod<std::uint64_t>("chunks");
    const auto blobLen = footer.pod<std::uint64_t>("blob");
    snap.blob = footer.column<std::uint64_t>(
        static_cast<std::size_t>(blobLen), "blob");
    const auto trackCount = footer.pod<std::uint32_t>("tracks");
    snap.tracks.reserve(trackCount);
    for (std::uint32_t i = 0; i < trackCount; ++i) {
        TrackInfo track;
        track.run = footer.pod<std::uint32_t>("track");
        track.name = footer.str("track");
        snap.tracks.push_back(std::move(track));
    }
    const auto runCount = footer.pod<std::uint32_t>("runs");
    snap.runs.reserve(runCount);
    for (std::uint32_t i = 0; i < runCount; ++i)
        snap.runs.push_back(footer.str("run"));
    snap.dropped = footer.pod<std::uint64_t>("dropped");

    Reader chunksIn{bytes, 16};
    snap.events.reserve(static_cast<std::size_t>(eventCount));
    for (std::uint64_t c = 0; c < chunkCount; ++c) {
        if (chunksIn.pos >= footerOffset)
            GMLAKE_FATAL("obs trace '", path,
                         "' chunk runs into the footer");
        const auto count = chunksIn.pod<std::uint32_t>("chunk");
        const auto hash = chunksIn.pod<std::uint32_t>("chunk");
        const std::size_t payloadStart = chunksIn.pos;
        auto simTime =
            chunksIn.column<std::uint64_t>(count, "simTime");
        auto dur = chunksIn.column<std::uint64_t>(count, "dur");
        auto a0 = chunksIn.column<std::uint64_t>(count, "a0");
        auto a1 = chunksIn.column<std::uint64_t>(count, "a1");
        auto a2 = chunksIn.column<std::uint64_t>(count, "a2");
        auto seq = chunksIn.column<std::uint32_t>(count, "seq");
        auto track = chunksIn.column<std::uint32_t>(count, "track");
        auto blobOff =
            chunksIn.column<std::uint32_t>(count, "blobOff");
        auto lens = chunksIn.column<std::uint32_t>(count, "blobLen");
        auto name = chunksIn.column<std::uint16_t>(count, "name");
        auto kind = chunksIn.column<std::uint8_t>(count, "kind");
        auto cat = chunksIn.column<std::uint8_t>(count, "cat");
        if (fold(fnv1a(bytes.data() + payloadStart,
                       chunksIn.pos - payloadStart)) != hash)
            GMLAKE_FATAL("obs trace '", path, "' chunk ", c,
                         " payload hash mismatch");
        for (std::uint32_t i = 0; i < count; ++i) {
            Event e;
            e.simTime = simTime[i];
            e.dur = dur[i];
            e.a0 = a0[i];
            e.a1 = a1[i];
            e.a2 = a2[i];
            e.seq = seq[i];
            e.track = track[i];
            e.blobOff = blobOff[i];
            e.blobLen = lens[i];
            e.name = static_cast<EvName>(name[i]);
            e.kind = static_cast<EventKind>(kind[i]);
            e.cat = static_cast<EventCat>(cat[i]);
            if (e.blobLen != 0 &&
                std::uint64_t{e.blobOff} + e.blobLen > snap.blob.size())
                GMLAKE_FATAL("obs trace '", path,
                             "' blob reference out of bounds");
            snap.events.push_back(e);
        }
    }
    if (snap.events.size() != eventCount)
        GMLAKE_FATAL("obs trace '", path, "' event count mismatch");
    return snap;
}

bool
looksLikeObsTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    in.read(magic, 8);
    return in && std::memcmp(magic, kMagic, 8) == 0;
}

} // namespace gmlake::obs
