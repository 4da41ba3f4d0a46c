/**
 * @file
 * Binary columnar trace format (`.gmt`): the storage layer behind
 * BinaryTraceSource. Text traces (workload/trace.hh) are convenient
 * to read and diff but parse at ~10⁶ events/s and must be fully
 * materialized; a packed `.gmt` file is mmap-ed and decoded field by
 * field, so replay cost is a few unaligned loads per event and the
 * resident footprint is the page cache's problem.
 *
 * On-disk layout (little-endian, no alignment padding):
 *
 *   ┌───────────────────────────────────────────────┐
 *   │ FileHeader   "GMTRACE1" · u32 version · u32 0 │
 *   ├───────────────────────────────────────────────┤
 *   │ Section 0:  Chunk · Chunk · …                 │  event data
 *   │ Section 1:  Chunk · …                         │  (per-session
 *   │ …                                             │   sections)
 *   ├───────────────────────────────────────────────┤
 *   │ Footer: per-section index records             │
 *   │   offset/bytes/events/chunks · TraceStats ·   │
 *   │   nameLen · name                              │
 *   ├───────────────────────────────────────────────┤
 *   │ Trailer  u64 footerOffset · u64 sectionCount  │
 *   │          u64 footerHash(FNV-1a) · "GMTFOOT1"  │
 *   └───────────────────────────────────────────────┘
 *
 * Each chunk holds up to kGmtChunkEvents events as per-column arrays
 * (structure-of-arrays, the columnar part):
 *
 *   u32 count · u32 payloadHash · u8 kind[count] · u64 tensor[count]
 *   · u64 bytes[count] · i64 computeNs[count] · u32 stream[count]
 *
 * The footer lives at the end so the writer streams: events are
 * appended chunk by chunk with O(chunk) memory, and the index is
 * emitted only at finish(). Readers locate it through the
 * fixed-size trailer, verify the footer hash, and bounds-check every
 * chunk against the section extent — truncated or corrupt files are
 * rejected at open (or first touch) instead of replaying garbage.
 * The footer hash does not cover event data, so each chunk header
 * carries a folded FNV-1a of its own columns (format v2), verified
 * when the chunk is first decoded: a flipped bit anywhere in a
 * payload fails loudly instead of replaying a silently different
 * workload.
 */

#ifndef GMLAKE_WORKLOAD_BINARY_TRACE_HH
#define GMLAKE_WORKLOAD_BINARY_TRACE_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

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

    ~GmtFile();
    GmtFile(const GmtFile &) = delete;
    GmtFile &operator=(const GmtFile &) = delete;

    const std::string &path() const { return mPath; }
    std::uint32_t version() const { return mVersion; }
    std::uint64_t fileBytes() const { return mSize; }
    const std::vector<GmtSection> &sections() const
    {
        return mSections;
    }

    /** Raw mapped bytes (valid for [0, fileBytes())). */
    const std::uint8_t *data() const { return mData; }

  private:
    GmtFile() = default;
    void validate();

    std::string mPath;
    const std::uint8_t *mData = nullptr;
    std::uint64_t mSize = 0;
    bool mMapped = false;            //!< mmap vs fallback buffer
    std::vector<std::uint8_t> mBuffer;
    std::uint32_t mVersion = 0;
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

    std::string mPath;
    std::ofstream mOut;
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
    void loadChunk(std::uint64_t offset);

    std::shared_ptr<const GmtFile> mFile;
    std::size_t mSection = 0;

    std::uint64_t mNextChunk = 0;   //!< file offset of next chunk
    std::uint64_t mRemaining = 0;   //!< events left in the section
    std::uint32_t mCount = 0;       //!< events in the loaded chunk
    std::uint32_t mIndex = 0;       //!< cursor within the chunk
    // Column base offsets of the loaded chunk.
    std::uint64_t mKindCol = 0, mTensorCol = 0, mBytesCol = 0,
                  mComputeCol = 0, mStreamCol = 0;
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
