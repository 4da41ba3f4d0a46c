/**
 * @file
 * Columnar binary dump of a recorder snapshot (`.gmo`): a schema
 * over the binary container (support/container.hh) that `.gmt`
 * traces use too, so both formats share one writer, one hash and one
 * validator.
 *
 *   magics    "GMOBSEV1" / "GMOFOOT1", version 2
 *   columns   u64 simTime/dur/a0/a1/a2 · u32 seq/track/blobOff/
 *             blobLen · u16 name · u8 kind · u8 cat
 *   footer    u64 events · u64 blob words · blob arena ·
 *             u32 tracks · (u32 run · u32 nameLen · name)* ·
 *             u32 runs · (u32 nameLen · name)* · u64 dropped
 *   count     the number of chunks
 */

#ifndef GMLAKE_OBS_EXPORT_COLUMNAR_HH
#define GMLAKE_OBS_EXPORT_COLUMNAR_HH

#include <string>

#include "obs/recorder.hh"

namespace gmlake::obs
{

/** Events per chunk of the columnar dump. */
inline constexpr std::size_t kObsChunkEvents = 16 * 1024;

/** Write @p snap to @p path; GMLAKE_FATAL on I/O failure. */
void writeColumnarTrace(const RecorderSnapshot &snap,
                        const std::string &path);

/**
 * Read a `.gmo` file back into a snapshot, verifying the trailer,
 * footer hash, every footer length and every chunk's payload hash;
 * GMLAKE_FATAL on any defect.
 */
RecorderSnapshot readColumnarTrace(const std::string &path);

/** True when @p path starts with the `.gmo` magic. */
bool looksLikeObsTrace(const std::string &path);

} // namespace gmlake::obs

#endif // GMLAKE_OBS_EXPORT_COLUMNAR_HH
