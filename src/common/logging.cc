#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace lazydp {

namespace {

std::atomic<bool> throw_mode{false};

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("LAZYDP_LOG_LEVEL");
    if (env == nullptr)
        return LogLevel::Inform;
    const std::string name(env);
    if (name == "inform" || name == "info")
        return LogLevel::Inform;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "error")
        return LogLevel::Error;
    // A typo'd env var must not silently mute the process: say so
    // (this one line ignores the threshold by design) and stay chatty.
    std::fprintf(stderr,
                 "warn: LAZYDP_LOG_LEVEL='%s' is not inform|warn|error;"
                 " using inform\n",
                 env);
    return LogLevel::Inform;
}

std::atomic<int> &
levelVar()
{
    // Resolved from the environment exactly once, on first use.
    static std::atomic<int> level{static_cast<int>(levelFromEnv())};
    return level;
}

/**
 * Emit one record with a SINGLE stdio call: the full line (prefix +
 * message + newline) is assembled first, so concurrent records from
 * serve lanes, the trainer and the sampler never interleave
 * mid-line (stdio locks the stream per call).
 */
void
emitLine(std::FILE *stream, const char *prefix, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 16);
    line.append(prefix);
    line.append(msg);
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), stream);
    std::fflush(stream);
}

} // namespace

void
setLogThrowMode(bool throw_instead_of_abort)
{
    throw_mode.store(throw_instead_of_abort);
}

bool
logThrowMode()
{
    return throw_mode.load();
}

void
setLogLevel(LogLevel level)
{
    levelVar().store(static_cast<int>(level),
                     std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        levelVar().load(std::memory_order_relaxed));
}

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "inform" || name == "info")
        return LogLevel::Inform;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "error")
        return LogLevel::Error;
    fatal("unknown log level '", name, "' (expected inform|warn|error)");
}

namespace detail {

void
panicImpl(const std::string &msg)
{
    if (throw_mode.load())
        throw std::runtime_error("panic: " + msg);
    emitLine(stderr, "panic: ", msg);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    if (throw_mode.load())
        throw std::runtime_error("fatal: " + msg);
    emitLine(stderr, "fatal: ", msg);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() > LogLevel::Warn)
        return;
    emitLine(stderr, "warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    if (logLevel() > LogLevel::Inform)
        return;
    emitLine(stdout, "info: ", msg);
}

} // namespace detail

} // namespace lazydp
