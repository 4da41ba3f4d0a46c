/**
 * @file
 * The one command-line flag parser every `gmlake_sim` verb uses.
 *
 * A verb declares its flags as a table of Flag rows; parseFlags()
 * applies argv to that table and printUsage() renders the verb's
 * --help from the same rows, so the help cannot drift from what is
 * accepted. Numbers go through parseInteger() / parseReal(), which
 * reject anything outside the row's inclusive range — sign, junk,
 * overflow, NaN and infinities included — with GMLAKE_FATAL, so a bad
 * value fails before the verb does any work. Spec strings (sweep
 * grids, fault plans) parse their numbers with the same two calls.
 */

#ifndef GMLAKE_SUPPORT_FLAGS_HH
#define GMLAKE_SUPPORT_FLAGS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hh"

namespace gmlake
{

/**
 * One flag of a verb. @c value is the placeholder --help shows:
 * nullptr for a toggle, and a bracketed "[FILE]" for a value that may
 * be omitted. The setter receives the value, or nullptr for a toggle
 * or an omitted optional value.
 */
struct Flag
{
    const char *name;
    const char *value;
    const char *help;
    std::function<void(const char *)> set;
};

using FlagTable = std::vector<Flag>;

/** What parseFlags() leaves for the verb. */
struct ParsedArgs
{
    std::vector<std::string> positionals;
    /** --help / -h was given; parsing stopped there. */
    bool help = false;
};

/**
 * Apply argv[1..argc) to @p flags; argv[0] names the verb. An
 * argument starting with '-' must be a row of the table, and a row
 * with a value takes the next argument (an optional "[...]" value
 * only when the next argument does not start with '-'). Everything
 * else is a positional, of which the verb takes @p minArgs to
 * @p maxArgs. GMLAKE_FATAL on an unknown flag, a missing value or a
 * wrong positional count; --help skips the count check.
 */
ParsedArgs parseFlags(const FlagTable &flags, int argc, char **argv,
                      std::size_t minArgs = 0, std::size_t maxArgs = 0);

/** "usage: @p usage", then one aligned line per row of @p flags. */
void printUsage(std::ostream &out, const std::string &usage,
                const FlagTable &flags);

/**
 * Unsigned decimal integer in [@p lo, @p hi]. With @p scaled, one
 * trailing K/M/G/T (any case) multiplies by 2^10/2^20/2^30/2^40, and
 * the product must fit too. @p what prefixes the diagnostic.
 */
std::uint64_t parseInteger(const std::string &what, std::string_view text,
                           std::uint64_t lo, std::uint64_t hi,
                           bool scaled = false);

/** Finite decimal real in [@p lo, @p hi]. */
double parseReal(const std::string &what, std::string_view text,
                 double lo, double hi);

/** Integer row into @p target; the bounds default to T's range. */
template <typename T>
Flag
integerFlag(const char *name, const char *value, const char *help,
            T &target, std::uint64_t lo = 0,
            std::uint64_t hi = std::numeric_limits<T>::max())
{
    return {name, value, help, [name, &target, lo, hi](const char *v) {
                target = static_cast<T>(parseInteger(
                    std::string("flag ") + name, v, lo, hi));
            }};
}

/**
 * Size row: a count of @p unit bytes (GiB, MiB), stored in bytes and
 * capped so the byte count fits in Bytes.
 */
Flag sizeFlag(const char *name, const char *value, const char *help,
              Bytes &target, Bytes unit);

/**
 * Output-path row: the value (or @p fallback when an optional value
 * is omitted) must name a file in an existing directory. Checked as
 * the flag is parsed, so a bad path fails before any work runs.
 */
Flag outputFlag(const char *name, const char *value, const char *help,
                std::string &target, std::string fallback = {});

/** The --log-level row every verb's table carries. */
Flag logLevelFlag();

} // namespace gmlake

#endif // GMLAKE_SUPPORT_FLAGS_HH
