#include "workload/binary_trace.hh"

#include <utility>

#include "support/logging.hh"

namespace gmlake::workload
{

namespace
{

constexpr std::uint8_t kWidths[] = {1, 8, 8, 8, 4};
constexpr ContainerSchema kSchema{".gmt", "GMTRACE1", "GMTFOOT1", 2,
                                  kWidths};

} // namespace

// ----------------------------------------------------------- writer

GmtWriter::GmtWriter(const std::string &path,
                     std::size_t chunkEvents)
    : mOut(path, kSchema), mChunkEvents(chunkEvents)
{
    GMLAKE_ASSERT(chunkEvents > 0, "zero-event chunks");
    mKind.reserve(chunkEvents);
    mTensor.reserve(chunkEvents);
    mBytes.reserve(chunkEvents);
    mComputeNs.reserve(chunkEvents);
    mStream.reserve(chunkEvents);
}

GmtWriter::~GmtWriter()
{
    // Best effort on the unwound path; explicit finish() reports
    // write failures, the destructor must not throw.
    if (!mFinished) {
        try {
            finish();
        } catch (...) {
        }
    }
}

void
GmtWriter::beginSection(const std::string &name)
{
    GMLAKE_ASSERT(!mFinished, "section after finish()");
    GMLAKE_ASSERT(!name.empty(), "unnamed trace section");
    if (mInSection)
        endSection();
    mCurrent = GmtSection{};
    mCurrent.name = name;
    mCurrent.offset = mOut.offset();
    mInSection = true;
}

void
GmtWriter::append(const Event &event)
{
    GMLAKE_ASSERT(mInSection,
                  "append outside a section (call beginSection)");
    mKind.push_back(static_cast<std::uint8_t>(event.kind));
    mTensor.push_back(event.tensor);
    mBytes.push_back(event.bytes);
    mComputeNs.push_back(event.computeNs);
    mStream.push_back(event.stream);
    ++mCurrent.events;
    if (event.kind == EventKind::alloc) {
        ++mCurrent.stats.allocCount;
        mCurrent.stats.totalAllocBytes += event.bytes;
        if (event.bytes > mCurrent.stats.maxAllocBytes)
            mCurrent.stats.maxAllocBytes = event.bytes;
    } else if (event.kind == EventKind::iterationMark) {
        ++mCurrent.stats.iterations;
    }
    if (mKind.size() >= mChunkEvents)
        flushChunk();
}

void
GmtWriter::append(EventSource &source)
{
    for (const Event *e = source.peek(); e != nullptr;
         source.advance(), e = source.peek())
        append(*e);
}

void
GmtWriter::flushChunk()
{
    if (mKind.empty())
        return;
    const void *const columns[] = {mKind.data(), mTensor.data(),
                                   mBytes.data(), mComputeNs.data(),
                                   mStream.data()};
    mOut.chunk(static_cast<std::uint32_t>(mKind.size()), columns);
    mKind.clear();
    mTensor.clear();
    mBytes.clear();
    mComputeNs.clear();
    mStream.clear();
    ++mCurrent.chunks;
}

void
GmtWriter::endSection()
{
    flushChunk();
    mCurrent.byteLength = mOut.offset() - mCurrent.offset;
    mSections.push_back(std::move(mCurrent));
    mInSection = false;
}

void
GmtWriter::finish()
{
    if (mFinished)
        return;
    if (mInSection)
        endSection();
    mFinished = true;

    for (const GmtSection &s : mSections) {
        mOut.put(s.offset);
        mOut.put(s.byteLength);
        mOut.put(s.events);
        mOut.put(s.chunks);
        mOut.put(s.stats.allocCount);
        mOut.put(static_cast<std::uint64_t>(s.stats.totalAllocBytes));
        mOut.put(static_cast<std::uint64_t>(s.stats.maxAllocBytes));
        mOut.put(static_cast<std::uint64_t>(s.stats.iterations));
        mOut.putString(s.name);
    }
    mOut.finish(mSections.size());
}

// ----------------------------------------------------------- reader

GmtFile::GmtFile(const std::string &path) : mFile(path, kSchema)
{
    ContainerFile::Footer footer = mFile.footer();
    for (std::uint64_t i = 0; i < mFile.count(); ++i) {
        GmtSection s;
        s.offset = footer.get<std::uint64_t>();
        s.byteLength = footer.get<std::uint64_t>();
        s.events = footer.get<std::uint64_t>();
        s.chunks = footer.get<std::uint64_t>();
        s.stats.allocCount = footer.get<std::uint64_t>();
        s.stats.totalAllocBytes =
            static_cast<Bytes>(footer.get<std::uint64_t>());
        s.stats.maxAllocBytes =
            static_cast<Bytes>(footer.get<std::uint64_t>());
        s.stats.iterations =
            static_cast<int>(footer.get<std::uint64_t>());
        s.name = footer.getString();
        const std::uint64_t end = mFile.footerOffset();
        if (s.offset < kContainerHeaderBytes || s.offset > end ||
            s.byteLength > end - s.offset)
            GMLAKE_FATAL("corrupt .gmt section extent '", s.name,
                         "': ", path);
        mSections.push_back(std::move(s));
    }
    footer.finish();
}

std::shared_ptr<const GmtFile>
GmtFile::open(const std::string &path)
{
    // make_shared needs a public constructor; this does not.
    return std::shared_ptr<const GmtFile>(new GmtFile(path));
}

// ----------------------------------------------------------- cursor

BinaryTraceSource::BinaryTraceSource(const std::string &path,
                                     std::size_t section)
    : BinaryTraceSource(GmtFile::open(path), section)
{
}

BinaryTraceSource::BinaryTraceSource(
    std::shared_ptr<const GmtFile> file, std::size_t section)
    : mFile(std::move(file)), mSection(section)
{
    GMLAKE_ASSERT(mFile != nullptr, "null .gmt file");
    if (section >= mFile->sections().size())
        GMLAKE_FATAL("no section ", section, " in ",
                     mFile->path(), " (", mFile->sections().size(),
                     " sections)");
    reset();
}

const GmtSection &
BinaryTraceSource::section() const
{
    return mFile->sections()[mSection];
}

void
BinaryTraceSource::reset()
{
    mNextChunk = section().offset;
    mRemaining = section().events;
    mCount = 0;
    mIndex = 0;
    mHave = false;
}

const Event *
BinaryTraceSource::peek()
{
    if (mHave)
        return &mCurrent;
    if (mRemaining == 0)
        return nullptr;
    if (mIndex >= mCount) {
        const GmtSection &s = section();
        mCount = mFile->container().chunk(
            mNextChunk, s.offset + s.byteLength, mRemaining, mCols);
        mIndex = 0;
    }
    const std::uint8_t kind = mCols[0][mIndex];
    if (kind > static_cast<std::uint8_t>(EventKind::prefetch))
        GMLAKE_FATAL("corrupt .gmt event kind ", kind, ": ",
                     mFile->path());
    mCurrent.kind = static_cast<EventKind>(kind);
    mCurrent.tensor = loadRaw<std::uint64_t>(mCols[1] + 8 * mIndex);
    mCurrent.bytes =
        static_cast<Bytes>(loadRaw<std::uint64_t>(mCols[2] + 8 * mIndex));
    mCurrent.computeNs = loadRaw<std::int64_t>(mCols[3] + 8 * mIndex);
    mCurrent.stream = loadRaw<std::uint32_t>(mCols[4] + 4 * mIndex);
    mHave = true;
    return &mCurrent;
}

void
BinaryTraceSource::advance()
{
    GMLAKE_ASSERT(peek() != nullptr, "advance past end of stream");
    ++mIndex;
    --mRemaining;
    mHave = false;
}

std::size_t
BinaryTraceSource::sizeHint() const
{
    return static_cast<std::size_t>(section().events);
}

// ---------------------------------------------------------- helpers

bool
looksLikeGmtFile(const std::string &path)
{
    return looksLikeContainer(path, kSchema);
}

void
packTrace(const Trace &trace, const std::string &path,
          const std::string &sectionName)
{
    GmtWriter writer(path);
    writer.beginSection(sectionName);
    for (const Event &e : trace.events())
        writer.append(e);
    writer.finish();
}

} // namespace gmlake::workload
