/**
 * @file
 * Status and error reporting for the Cider simulator.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a simulator bug), fatal() is for unrecoverable user error,
 * warn() flags questionable-but-survivable conditions, and inform()
 * prints plain status. panic() aborts; fatal() exits with status 1.
 */

#ifndef CIDER_BASE_LOGGING_H
#define CIDER_BASE_LOGGING_H

#include <sstream>
#include <string>

namespace cider {

namespace detail {

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort the simulator: an internal invariant was violated. */
#define cider_panic(...)                                                    \
    ::cider::detail::panicImpl(__FILE__, __LINE__,                          \
                               ::cider::detail::concat(__VA_ARGS__))

/** Exit the simulator: the user asked for something unsupportable. */
#define cider_fatal(...)                                                    \
    ::cider::detail::fatalImpl(__FILE__, __LINE__,                          \
                               ::cider::detail::concat(__VA_ARGS__))

/** Print a warning about questionable but survivable behaviour. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Global switch for warn()/inform() output so tests exercising failure
 * paths stay quiet. panic()/fatal() always print.
 */
void setLogQuiet(bool quiet);
bool logQuiet();

/** Append printf-style text to @p out, as the /proc/cider texts are
 *  built; one call appends at most 255 characters. */
void appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cider

#endif // CIDER_BASE_LOGGING_H
