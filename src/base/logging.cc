#include "base/logging.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cider {

namespace {

std::atomic<bool> g_quiet{false};

} // namespace

void
setLogQuiet(bool quiet)
{
    g_quiet.store(quiet, std::memory_order_relaxed);
}

bool
logQuiet()
{
    return g_quiet.load(std::memory_order_relaxed);
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!logQuiet())
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!logQuiet())
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace cider
