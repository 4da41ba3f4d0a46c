/**
 * @file
 * String formatting helpers for human-readable output.
 */

#ifndef GMLAKE_SUPPORT_STRINGS_HH
#define GMLAKE_SUPPORT_STRINGS_HH

#include <string>

#include "support/types.hh"

namespace gmlake
{

/** "12.3 GB", "512.0 MB", "4.0 KB", "17 B". */
std::string formatBytes(Bytes bytes);

/** Fixed-point decimal with @p digits fractional digits. */
std::string formatDouble(double v, int digits = 2);

/** Percentage "93.1%" from a ratio in [0, 1]. */
std::string formatPercent(double ratio, int digits = 1);

/** "1.23 ms" / "45.6 us" / "789 ns" from nanoseconds. */
std::string formatTime(Tick ns);

/** @p text escaped for a JSON string literal (quotes not added). */
std::string jsonEscape(const std::string &text);

} // namespace gmlake

#endif // GMLAKE_SUPPORT_STRINGS_HH
