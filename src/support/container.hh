/**
 * @file
 * The one binary container under both columnar formats: `.gmt`
 * workload traces (workload/binary_trace.hh) and `.gmo` recorder
 * dumps (obs/export_columnar.hh) are schemas over it. A schema picks
 * its two magics and version, the byte widths of its chunk columns,
 * its footer contents and what the trailer's count word means; the
 * container owns the bytes around them, both hashes and every bounds
 * check.
 *
 * On-disk layout (little-endian, no alignment padding):
 *
 *   ┌──────────────────────────────────────────────────┐
 *   │ Header   magic · u32 version · u32 0             │
 *   ├──────────────────────────────────────────────────┤
 *   │ Chunk*   u32 rows · u32 payloadHash ·            │
 *   │          column 0 [rows] · column 1 [rows] · …   │
 *   ├──────────────────────────────────────────────────┤
 *   │ Footer   schema-defined index and side tables    │
 *   ├──────────────────────────────────────────────────┤
 *   │ Trailer  u64 footerOffset · u64 count ·          │
 *   │          u64 footerHash · footMagic              │
 *   └──────────────────────────────────────────────────┘
 *
 * The footer hash is FNV-1a 64 over the footer bytes. It does not
 * cover the chunks, so each chunk header carries its own hash: a
 * word-wise FNV-1a chained over the column spans, folded to 32 bits.
 * The footer sits at the end so a writer streams with one chunk of
 * memory. A reader maps the file and checks header, version,
 * trailer, footer extent and footer hash at open, and each chunk's
 * rows, extent and hash when it is first read: truncated or corrupt
 * files fail loudly (GMLAKE_FATAL) instead of decoding garbage.
 */

#ifndef GMLAKE_SUPPORT_CONTAINER_HH
#define GMLAKE_SUPPORT_CONTAINER_HH

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>

namespace gmlake
{

/** File header bytes; the first chunk starts here. */
inline constexpr std::uint64_t kContainerHeaderBytes = 16;

/** What one binary format puts in the container. */
struct ContainerSchema
{
    const char *name;       //!< for diagnostics: ".gmt", ".gmo"
    const char *magic;      //!< 8-byte file magic
    const char *footMagic;  //!< 8-byte trailer magic
    std::uint32_t version;
    std::span<const std::uint8_t> widths; //!< bytes per row, per column
};

/** Unaligned load of a T from @p p. */
template <typename T>
T
loadRaw(const std::uint8_t *p)
{
    T value{};
    std::memcpy(&value, p, sizeof value);
    return value;
}

/** Streams a container: header now, chunks, then finish(). */
class ContainerWriter
{
  public:
    /** Create @p path and write the header; GMLAKE_FATAL on failure. */
    ContainerWriter(const std::string &path,
                    const ContainerSchema &schema);

    /** File offset the next chunk starts at. */
    std::uint64_t offset() const { return mOffset; }

    /** Append a chunk: @p columns holds one pointer per schema
     *  column, each to @p rows times its width in bytes. */
    void chunk(std::uint32_t rows, const void *const *columns);

    /** Append @p value's bytes to the footer. */
    template <typename T>
    void
    put(const T &value)
    {
        mFooter.append(reinterpret_cast<const char *>(&value),
                       sizeof value);
    }
    /** Append u32 length + bytes to the footer. */
    void putString(const std::string &text);

    /** Write footer and trailer, flush and close; GMLAKE_FATAL when
     *  any write failed. */
    void finish(std::uint64_t count);

  private:
    void write(const void *data, std::size_t size);

    const ContainerSchema &mSchema;
    std::string mPath;
    std::ofstream mOut;
    std::uint64_t mOffset = 0;
    std::string mFooter;
};

/** A mapped container file, checked at open. */
class ContainerFile
{
  public:
    /** Map @p path and check it; GMLAKE_FATAL on any defect. */
    ContainerFile(const std::string &path,
                  const ContainerSchema &schema);

    const std::string &path() const { return mPath; }
    std::uint32_t version() const { return mSchema.version; }
    const std::uint8_t *data() const { return mMap.get(); }
    std::uint64_t size() const { return mSize; }
    /** The trailer's count word; its meaning is the schema's. */
    std::uint64_t count() const { return mCount; }
    /** Chunks live in [kContainerHeaderBytes, footerOffset()). */
    std::uint64_t footerOffset() const { return mFooterOffset; }

    /**
     * Check the chunk at @p offset: 1..@p maxRows rows, columns that
     * end by @p limit, and its payload hash. Points @p columns (one
     * per schema column) at the column data, moves @p offset past
     * the chunk and returns the row count.
     */
    std::uint32_t chunk(std::uint64_t &offset, std::uint64_t limit,
                        std::uint64_t maxRows,
                        const std::uint8_t **columns) const;

    /** Sequential footer reads, each checked against the bytes left
     *  before anything is allocated for it. */
    class Footer
    {
      public:
        template <typename T>
        T
        get()
        {
            return loadRaw<T>(take(sizeof(T)));
        }
        std::string getString();
        /** @p n, once @p n items of @p itemBytes fit in what is left. */
        std::uint64_t items(std::uint64_t n,
                            std::uint64_t itemBytes) const;
        const std::uint8_t *take(std::uint64_t n);
        /** GMLAKE_FATAL unless every footer byte was read. */
        void finish() const;

      private:
        friend class ContainerFile;
        explicit Footer(const ContainerFile &file);

        const ContainerFile &mFile;
        std::uint64_t mPos;
    };
    Footer footer() const { return Footer(*this); }

  private:
    struct Unmap
    {
        std::uint64_t size;
        void operator()(const std::uint8_t *data) const;
    };

    [[noreturn]] void fail(const std::string &what) const;

    const ContainerSchema &mSchema;
    std::string mPath;
    std::uint64_t mSize = 0;
    std::unique_ptr<const std::uint8_t, Unmap> mMap;
    std::uint64_t mFooterOffset = 0;
    std::uint64_t mCount = 0;
};

/** True when @p path starts with @p schema's magic. */
bool looksLikeContainer(const std::string &path,
                        const ContainerSchema &schema);

} // namespace gmlake

#endif // GMLAKE_SUPPORT_CONTAINER_HH
