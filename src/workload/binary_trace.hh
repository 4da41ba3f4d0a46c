/**
 * @file
 * Binary columnar trace format (`.gmt`): the storage layer behind
 * BinaryTraceSource. Text traces (workload/trace.hh) are convenient
 * to read and diff but parse at ~10⁶ events/s and must be fully
 * materialized; a packed `.gmt` file is mmap-ed and decoded field by
 * field, so replay cost is a few unaligned loads per event and the
 * resident footprint is the page cache's problem.
 *
 * A `.gmt` is a schema over the binary container
 * (support/container.hh), which owns the header, chunk hashes,
 * footer hash, trailer and every bounds check:
 *
 *   magics    "GMTRACE1" / "GMTFOOT1", version 2
 *   columns   u8 kind · u64 tensor · u64 bytes · i64 computeNs ·
 *             u32 stream (kGmtChunkEvents rows per chunk by default)
 *   footer    per section: u64 offset/bytes/events/chunks ·
 *             TraceStats as 4 × u64 · u32 nameLen · name
 *   count     the number of sections
 *
 * A section is one session's run of chunks. The writer streams
 * events chunk by chunk with O(chunk) memory and emits the section
 * index at finish(); readers bounds-check every section against the
 * chunk region at open and every chunk against its section when
 * they first decode it.
 */

#ifndef GMLAKE_WORKLOAD_BINARY_TRACE_HH
#define GMLAKE_WORKLOAD_BINARY_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/container.hh"
#include "workload/event_source.hh"
#include "workload/trace.hh"

namespace gmlake::workload
{

/** Events per chunk: ~1.8 MiB of columns, streams comfortably. */
inline constexpr std::size_t kGmtChunkEvents = 64 * 1024;

/** One section (= one session's event stream) of a `.gmt` file. */
struct GmtSection
{
    std::string name;
    std::uint64_t events = 0;
    std::uint64_t chunks = 0;
    /** Section extent within the file. */
    std::uint64_t offset = 0;
    std::uint64_t byteLength = 0;
    /** Aggregate shape, mirrored from the footer index. */
    TraceStats stats;
};

/**
 * A validated, read-only mapping of a `.gmt` file. Header, trailer
 * and footer are checked at open (magic, version, footer hash,
 * section bounds); chunk extents are checked as cursors walk them.
 * Shared by every BinaryTraceSource over the file, so a multi-session
 * replay maps the file once.
 */
class GmtFile
{
  public:
    /** Map and validate @p path; GMLAKE_FATAL on any defect. */
    static std::shared_ptr<const GmtFile> open(
        const std::string &path);

    const std::string &path() const { return mFile.path(); }
    std::uint32_t version() const { return mFile.version(); }
    std::uint64_t fileBytes() const { return mFile.size(); }
    const std::vector<GmtSection> &sections() const
    {
        return mSections;
    }

    /** The mapped container, for chunk reads. */
    const ContainerFile &container() const { return mFile; }

  private:
    explicit GmtFile(const std::string &path);

    ContainerFile mFile;
    std::vector<GmtSection> mSections;
};

/**
 * Streaming `.gmt` writer: buffers one chunk of columns, flushes it
 * when full, and emits the footer + trailer at finish(). Memory use
 * is one chunk regardless of trace length, so packing a 10⁷-event
 * stream needs no materialization either.
 */
class GmtWriter
{
  public:
    explicit GmtWriter(const std::string &path,
                       std::size_t chunkEvents = kGmtChunkEvents);
    ~GmtWriter();
    GmtWriter(const GmtWriter &) = delete;
    GmtWriter &operator=(const GmtWriter &) = delete;

    /** Start a new section; events append to it until the next. */
    void beginSection(const std::string &name);

    void append(const Event &event);

    /** Drain @p source into the current section. */
    void append(EventSource &source);

    /** Flush, write footer + trailer, close. Idempotent. */
    void finish();

  private:
    void flushChunk();
    void endSection();

    ContainerWriter mOut;
    std::size_t mChunkEvents;
    bool mFinished = false;
    bool mInSection = false;

    // Column buffers of the chunk being filled.
    std::vector<std::uint8_t> mKind;
    std::vector<std::uint64_t> mTensor;
    std::vector<std::uint64_t> mBytes;
    std::vector<std::int64_t> mComputeNs;
    std::vector<std::uint32_t> mStream;

    GmtSection mCurrent;
    std::vector<GmtSection> mSections;
};

/**
 * EventSource over one section of a `.gmt` file: walks the chunks in
 * place, decoding one event per peek() from the mapped columns.
 */
class BinaryTraceSource final : public EventSource
{
  public:
    /** Open @p path and cursor its section @p section. */
    explicit BinaryTraceSource(const std::string &path,
                               std::size_t section = 0);

    /** Cursor section @p section of an already-open file. */
    BinaryTraceSource(std::shared_ptr<const GmtFile> file,
                      std::size_t section);

    const Event *peek() override;
    void advance() override;
    std::size_t sizeHint() const override;
    void reset() override;

    const GmtFile &file() const { return *mFile; }
    const GmtSection &section() const;

  private:
    std::shared_ptr<const GmtFile> mFile;
    std::size_t mSection = 0;

    std::uint64_t mNextChunk = 0;   //!< file offset of next chunk
    std::uint64_t mRemaining = 0;   //!< events left in the section
    std::uint32_t mCount = 0;       //!< events in the loaded chunk
    std::size_t mIndex = 0;         //!< cursor within the chunk
    /** Column bases of the loaded chunk, in schema order. */
    const std::uint8_t *mCols[5] = {};
    Event mCurrent;
    bool mHave = false;
};

/** True when @p path starts with the `.gmt` magic. */
bool looksLikeGmtFile(const std::string &path);

/** Pack a materialized trace as a one-section `.gmt` file. */
void packTrace(const Trace &trace, const std::string &path,
               const std::string &sectionName = "trace");

} // namespace gmlake::workload

#endif // GMLAKE_WORKLOAD_BINARY_TRACE_HH
