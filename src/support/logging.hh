/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  — an internal invariant was violated; this is a bug in the
 *            simulator itself. Aborts.
 * fatal()  — the simulation cannot continue because of user input
 *            (bad configuration, impossible workload). Exits with 1.
 * warn()   — something suspicious but survivable happened.
 * inform() — plain status output.
 */

#ifndef GMLAKE_SUPPORT_LOGGING_HH
#define GMLAKE_SUPPORT_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gmlake
{

/**
 * Thrown by fatal()/GMLAKE_FATAL after the diagnostic has been
 * printed to stderr; catch sites can exit quietly without losing
 * stray exceptions from other sources.
 */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Thrown by panic()/GMLAKE_PANIC, likewise already reported. */
struct PanicError : std::logic_error
{
    using std::logic_error::logic_error;
};

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/**
 * Log severities, ordered so that a threshold admits everything at
 * or below its numeric value. `error` silences warn() and inform()
 * (panic/fatal diagnostics are never suppressed), `warn` is the
 * default, `info` matches the old --verbose, and `debug` is reserved
 * headroom for chattier subsystems.
 */
enum class LogLevel : int
{
    error = 0,
    warn = 1,
    info = 2,
    debug = 3,
};

/** Global log threshold; messages above it are dropped. */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/**
 * Parse "error" / "warn" / "info" / "debug" (case-sensitive, the
 * spelling every `gmlake_sim` verb accepts for --log-level).
 * GMLAKE_FATAL on anything else.
 */
LogLevel parseLogLevel(const std::string &text);

/**
 * Test hook: when non-null, every warn()/inform() message is also
 * appended here (regardless of the threshold) so tests can assert on
 * log output without scraping stderr. Not thread-safe to flip while
 * worker threads log; set it around single-threaded sections only.
 */
void setLogCapture(std::vector<std::pair<LogLevel, std::string>> *sink);

} // namespace gmlake

#define GMLAKE_PANIC(...) \
    ::gmlake::detail::panicImpl(__FILE__, __LINE__, \
                                ::gmlake::detail::concat(__VA_ARGS__))

#define GMLAKE_FATAL(...) \
    ::gmlake::detail::fatalImpl(__FILE__, __LINE__, \
                                ::gmlake::detail::concat(__VA_ARGS__))

#define GMLAKE_WARN(...) \
    ::gmlake::detail::warnImpl(::gmlake::detail::concat(__VA_ARGS__))

#define GMLAKE_INFORM(...) \
    ::gmlake::detail::informImpl(::gmlake::detail::concat(__VA_ARGS__))

/** Invariant check that survives NDEBUG: panics with a message. */
#define GMLAKE_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            GMLAKE_PANIC("assertion `" #cond "` failed: ", \
                         ::gmlake::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

#endif // GMLAKE_SUPPORT_LOGGING_HH
