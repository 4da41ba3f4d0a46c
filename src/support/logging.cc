#include "support/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace gmlake
{

namespace
{
// The threshold is set once at startup but read from worker threads
// (parallel cluster ranks), so the level is atomic and the stream
// writes are serialized to keep messages whole.
std::atomic<int> gLogLevel{static_cast<int>(LogLevel::warn)};
std::mutex gStreamMutex;
std::vector<std::pair<LogLevel, std::string>> *gCapture = nullptr;

void
capture(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(gStreamMutex);
    if (gCapture != nullptr)
        gCapture->emplace_back(level, msg);
}
} // namespace

void setLogLevel(LogLevel level)
{
    gLogLevel.store(static_cast<int>(level));
}

LogLevel logLevel()
{
    return static_cast<LogLevel>(gLogLevel.load());
}

LogLevel
parseLogLevel(const std::string &text)
{
    if (text == "error")
        return LogLevel::error;
    if (text == "warn")
        return LogLevel::warn;
    if (text == "info")
        return LogLevel::info;
    if (text == "debug")
        return LogLevel::debug;
    GMLAKE_FATAL("invalid log level '", text,
                 "' (expected error|warn|info|debug)");
}

void
setLogCapture(std::vector<std::pair<LogLevel, std::string>> *sink)
{
    std::lock_guard<std::mutex> lock(gStreamMutex);
    gCapture = sink;
}

namespace detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(gStreamMutex);
        std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file,
                     line);
        std::fflush(stderr);
    }
    // Throw instead of abort() so unit tests can observe panics; the
    // exception derives from std::logic_error because a panic is a bug.
    throw PanicError("panic: " + msg);
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(gStreamMutex);
        std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file,
                     line);
        std::fflush(stderr);
    }
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    capture(LogLevel::warn, msg);
    if (logLevel() < LogLevel::warn)
        return;
    std::lock_guard<std::mutex> lock(gStreamMutex);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    capture(LogLevel::info, msg);
    if (logLevel() < LogLevel::info)
        return;
    std::lock_guard<std::mutex> lock(gStreamMutex);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace gmlake
