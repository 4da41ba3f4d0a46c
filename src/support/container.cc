#include "support/container.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/logging.hh"

namespace gmlake
{

namespace
{

constexpr std::uint64_t kTrailerBytes = 32;
constexpr std::uint64_t kChunkHeaderBytes = 8;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Byte-wise FNV-1a 64: the footer hash. */
std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t hash = kFnvBasis;
    for (std::size_t i = 0; i < size; ++i)
        hash = (hash ^ data[i]) * kFnvPrime;
    return hash;
}

/**
 * The chunk payload hash: FNV-1a eight bytes per multiply instead of
 * one, so verifying a chunk costs a fraction of decoding it. Word
 * grouping restarts at each column, so a writer's per-column buffers
 * and a reader's mapped columns hash alike.
 */
template <typename Column>
std::uint32_t
hashColumns(std::span<const std::uint8_t> widths, std::uint32_t rows,
            const Column *columns)
{
    std::uint64_t hash = kFnvBasis;
    for (std::size_t c = 0; c < widths.size(); ++c) {
        const auto *data = static_cast<const std::uint8_t *>(columns[c]);
        const std::size_t size = std::size_t{widths[c]} * rows;
        std::size_t i = 0;
        for (; i + 8 <= size; i += 8)
            hash = (hash ^ loadRaw<std::uint64_t>(data + i)) * kFnvPrime;
        for (; i < size; ++i)
            hash = (hash ^ data[i]) * kFnvPrime;
    }
    return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

} // namespace

// ----------------------------------------------------------- writer

ContainerWriter::ContainerWriter(const std::string &path,
                                 const ContainerSchema &schema)
    : mSchema(schema), mPath(path),
      mOut(path, std::ios::binary | std::ios::trunc)
{
    if (!mOut)
        GMLAKE_FATAL("cannot open ", schema.name, " file for writing: ",
                     path);
    const std::uint32_t version[2] = {schema.version, 0};
    write(schema.magic, 8);
    write(version, sizeof version);
}

void
ContainerWriter::write(const void *data, std::size_t size)
{
    mOut.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(size));
    mOffset += size;
}

void
ContainerWriter::chunk(std::uint32_t rows, const void *const *columns)
{
    const std::uint32_t header[2] = {
        rows, hashColumns(mSchema.widths, rows, columns)};
    write(header, sizeof header);
    for (std::size_t c = 0; c < mSchema.widths.size(); ++c)
        write(columns[c], std::size_t{mSchema.widths[c]} * rows);
}

void
ContainerWriter::putString(const std::string &text)
{
    put(static_cast<std::uint32_t>(text.size()));
    mFooter += text;
}

void
ContainerWriter::finish(std::uint64_t count)
{
    const std::uint64_t trailer[3] = {
        mOffset, count,
        fnv1a(reinterpret_cast<const std::uint8_t *>(mFooter.data()),
              mFooter.size())};
    write(mFooter.data(), mFooter.size());
    write(trailer, sizeof trailer);
    write(mSchema.footMagic, 8);
    mOut.flush();
    if (!mOut)
        GMLAKE_FATAL("write failed on ", mSchema.name, " file: ", mPath);
    mOut.close();
}

// ----------------------------------------------------------- reader

void
ContainerFile::Unmap::operator()(const std::uint8_t *data) const
{
    ::munmap(const_cast<std::uint8_t *>(data), size);
}

void
ContainerFile::fail(const std::string &what) const
{
    GMLAKE_FATAL(mSchema.name, " file ", mPath, ": ", what);
}

ContainerFile::ContainerFile(const std::string &path,
                             const ContainerSchema &schema)
    : mSchema(schema), mPath(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    struct stat st = {};
    if (fd < 0 || ::fstat(fd, &st) != 0) {
        if (fd >= 0)
            ::close(fd);
        fail("cannot open");
    }
    mSize = static_cast<std::uint64_t>(st.st_size);
    void *map = mSize == 0 ? MAP_FAILED
                           : ::mmap(nullptr, mSize, PROT_READ,
                                    MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map != MAP_FAILED)
        mMap = {static_cast<const std::uint8_t *>(map), Unmap{mSize}};
    if (mSize < kContainerHeaderBytes + kTrailerBytes)
        fail(detail::concat("truncated (", mSize, " bytes)"));
    if (map == MAP_FAILED)
        fail("cannot map");

    const std::uint8_t *bytes = data();
    if (std::memcmp(bytes, schema.magic, 8) != 0)
        fail("bad magic");
    if (loadRaw<std::uint32_t>(bytes + 8) != schema.version)
        fail(detail::concat("unsupported version ",
                            loadRaw<std::uint32_t>(bytes + 8)));
    const std::uint64_t trailer = mSize - kTrailerBytes;
    if (std::memcmp(bytes + trailer + 24, schema.footMagic, 8) != 0)
        fail("missing trailer (truncated?)");
    mFooterOffset = loadRaw<std::uint64_t>(bytes + trailer);
    mCount = loadRaw<std::uint64_t>(bytes + trailer + 8);
    if (mFooterOffset < kContainerHeaderBytes || mFooterOffset > trailer)
        fail(detail::concat("footer offset ", mFooterOffset,
                            " out of range"));
    if (fnv1a(bytes + mFooterOffset, trailer - mFooterOffset) !=
        loadRaw<std::uint64_t>(bytes + trailer + 16))
        fail("footer hash mismatch");
}

std::uint32_t
ContainerFile::chunk(std::uint64_t &offset, std::uint64_t limit,
                     std::uint64_t maxRows,
                     const std::uint8_t **columns) const
{
    if (offset > limit || limit - offset < kChunkHeaderBytes)
        fail(detail::concat("no chunk header at ", offset));
    std::uint64_t rowBytes = 0;
    for (const std::uint8_t width : mSchema.widths)
        rowBytes += width;
    const auto rows = loadRaw<std::uint32_t>(data() + offset);
    if (rows == 0 || rows > maxRows ||
        (limit - offset - kChunkHeaderBytes) / rowBytes < rows)
        fail(detail::concat("bad chunk (", rows, " rows) at ", offset));
    std::uint64_t at = offset + kChunkHeaderBytes;
    for (std::size_t c = 0; c < mSchema.widths.size(); ++c) {
        columns[c] = data() + at;
        at += std::uint64_t{mSchema.widths[c]} * rows;
    }
    if (hashColumns(mSchema.widths, rows, columns) !=
        loadRaw<std::uint32_t>(data() + offset + 4))
        fail(detail::concat("chunk payload hash mismatch at ", offset));
    offset = at;
    return rows;
}

// ----------------------------------------------------------- footer

ContainerFile::Footer::Footer(const ContainerFile &file)
    : mFile(file), mPos(file.mFooterOffset)
{
}

std::uint64_t
ContainerFile::Footer::items(std::uint64_t n,
                             std::uint64_t itemBytes) const
{
    if (n > (mFile.mSize - kTrailerBytes - mPos) / itemBytes)
        mFile.fail(detail::concat("footer too short for ", n, " items"));
    return n;
}

const std::uint8_t *
ContainerFile::Footer::take(std::uint64_t n)
{
    const std::uint8_t *at = mFile.data() + mPos;
    mPos += items(n, 1);
    return at;
}

std::string
ContainerFile::Footer::getString()
{
    const auto size = get<std::uint32_t>();
    return std::string(reinterpret_cast<const char *>(take(size)), size);
}

void
ContainerFile::Footer::finish() const
{
    if (mPos != mFile.mSize - kTrailerBytes)
        mFile.fail("trailing footer bytes");
}

bool
looksLikeContainer(const std::string &path, const ContainerSchema &schema)
{
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    in.read(magic, sizeof magic);
    return in.gcount() == sizeof magic &&
           std::memcmp(magic, schema.magic, sizeof magic) == 0;
}

} // namespace gmlake
