/// \file model_io.hpp
/// \brief Persistence of functional performance models.
///
/// Models are expensive to build (they time real kernels with a
/// reliability loop), so deployments build them once and reuse them — the
/// workflow of the authors' fupermod tooling.  Since format v2 a model
/// file is self-describing: the first line is a versioned magic header,
/// followed by the CSV column header and one measured point per row:
///
///     fpmmodel v2
///     name,max_problem,x,speed
///     cpu,inf,64,1.25e+06
///     ...
///
/// `max_problem` is the literal string `inf` for unbounded devices.
/// Points of one model must be contiguous; models appear in file order.
/// v1 files (headerless — they start directly with the CSV column
/// header) still load; a file claiming a *newer* format version than
/// this build understands is rejected instead of misparsed.
///
/// One `\r` before a line's `\n` is dropped, so a CRLF file loads.
///
/// Malformed input is reported as ParseError, which pinpoints the
/// offending line and CSV column instead of a free-text bool-ish
/// failure; ParseError derives fpm::Error, so existing catch sites keep
/// working.  The string entry points (no iostreams) exist for callers
/// that embed model text in larger records (the durable model store's
/// WAL records, snapshots and replication stream).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/core/speed_function.hpp"

namespace fpm::core {

/// Magic word of the self-describing header ("fpmmodel v<version>").
inline constexpr const char* kModelFileMagic = "fpmmodel";

/// The format version this build writes; readers accept [1, this].
/// v2 added the magic header line; v1 is the headerless CSV.
inline constexpr int kModelFormatVersion = 2;

/// A malformed model file, pinpointed: `line` is 1-based within the
/// input, `column` is the 1-based CSV cell (0 when the whole line is at
/// fault), and `reason` is the bare diagnosis.  what() renders all three.
class ParseError : public Error {
public:
    ParseError(std::string origin, std::size_t line, std::size_t column,
               std::string reason);

    [[nodiscard]] const std::string& origin() const noexcept { return origin_; }
    [[nodiscard]] std::size_t line() const noexcept { return line_; }
    [[nodiscard]] std::size_t column() const noexcept { return column_; }
    [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

private:
    std::string origin_;  ///< path or caller-supplied stream label
    std::size_t line_ = 0;
    std::size_t column_ = 0;
    std::string reason_;
};

/// Appends the models to `out` in the current format (v2 header included).
/// Throws fpm::Error on empty input or a model name holding a comma.
void write_speed_functions(std::string& out,
                           const std::vector<SpeedFunction>& models);

/// Parses models from `text` (v2 or headerless v1) in place; `origin`
/// labels ParseError diagnostics (a path, or e.g. "wal record").
/// Validates the schema and the per-model invariants (via the
/// SpeedFunction constructor).  Throws ParseError on malformed input.
std::vector<SpeedFunction> read_speed_functions(std::string_view text,
                                                const std::string& origin);

/// Writes the models to `path` (truncates).  Throws fpm::Error on I/O
/// failure or empty input.
void save_speed_functions_csv(const std::string& path,
                              const std::vector<SpeedFunction>& models);

/// Reads models back from `path`; see read_speed_functions().  Throws
/// ParseError on malformed input, fpm::Error when the file is missing
/// or is not a regular file (a FIFO, a device, a directory), checked
/// before anything is read.
std::vector<SpeedFunction> load_speed_functions_csv(const std::string& path);

} // namespace fpm::core
