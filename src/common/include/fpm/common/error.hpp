/// \file error.hpp
/// \brief Error handling primitives for fpmpart.
///
/// All fpmpart libraries report precondition violations and runtime failures
/// by throwing fpm::Error (a std::runtime_error).  Internal invariants that
/// indicate a bug in the library itself use FPM_ASSERT, which throws
/// fpm::LogicError so that tests can exercise failure paths without
/// aborting the process.
#pragma once

#include <cstddef>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fpm {

/// Runtime error raised on invalid arguments or unsatisfiable requests
/// (for example: partitioning zero devices, benchmarking a problem size
/// that exceeds every device's capacity).
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& message)
        : std::runtime_error(message), message_size_(message.size()) {}

    /// what() reads `prefix + message + suffix`.  FPM_CHECK puts the
    /// failed expression and its source location around the message.
    Error(const std::string& prefix, const std::string& message,
          const std::string& suffix)
        : std::runtime_error(prefix + message + suffix),
          message_begin_(prefix.size()),
          message_size_(message.size()) {}

    /// The failure in words, without a failed check's expression and
    /// source location: the text shown to a caller in another process.
    /// A view into what(), valid while this error lives.
    [[nodiscard]] std::string_view message() const noexcept {
        return {what() + message_begin_, message_size_};
    }

private:
    std::size_t message_begin_ = 0;
    std::size_t message_size_ = 0;
};

/// Logic error raised when an internal invariant of the library fails.
class LogicError : public std::logic_error {
public:
    explicit LogicError(const std::string& what_arg) : std::logic_error(what_arg) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const std::string& message,
                                      const std::source_location& loc);
[[noreturn]] void throw_assert_failure(const char* expr, const std::source_location& loc);
} // namespace detail

} // namespace fpm

/// Validate a caller-supplied precondition; throws fpm::Error on failure.
#define FPM_CHECK(expr, message)                                                        \
    do {                                                                                \
        if (!(expr)) {                                                                  \
            ::fpm::detail::throw_check_failure(#expr, (message),                        \
                                               std::source_location::current());       \
        }                                                                               \
    } while (false)

/// Validate an internal invariant; throws fpm::LogicError on failure.
#define FPM_ASSERT(expr)                                                                \
    do {                                                                                \
        if (!(expr)) {                                                                  \
            ::fpm::detail::throw_assert_failure(#expr,                                  \
                                                std::source_location::current());      \
        }                                                                               \
    } while (false)
