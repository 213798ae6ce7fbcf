#include "fpm/core/model_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>

#include "fpm/common/split.hpp"

namespace fpm::core {

namespace {

constexpr std::string_view kColumnHeader = "name,max_problem,x,speed";

/// The next line of `rest`, without its `\n` and one trailing `\r`.
bool next_line(std::string_view& rest, std::string_view& line) {
    if (!next_part(rest, '\n', line)) {
        return false;
    }
    if (line.ends_with('\r')) {
        line.remove_suffix(1);
    }
    return true;
}

/// Strict double parse for one CSV cell; throws ParseError pinpointing
/// `column` (1-based cell index) on failure.  strtod reads a
/// NUL-terminated copy: on the stack, or for a long cell the heap.
double parse_cell(std::string_view text, const std::string& origin,
                  std::size_t line, std::size_t column) {
    char stack[64];
    std::string heap;
    char* begin = stack;
    if (text.size() < sizeof stack) {
        std::memcpy(stack, text.data(), text.size());
        stack[text.size()] = '\0';
    } else {
        begin = heap.assign(text).data();
    }
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin || end != begin + text.size()) {
        throw ParseError(origin, line, column,
                         "non-numeric value '" + std::string(text) + "'");
    }
    return value;
}

/// Parses the `fpmmodel v<N>` magic line; returns 0 when `line` is not a
/// header at all (a v1 file), throws for a recognisable header carrying
/// an unusable version.
int parse_magic(std::string_view line, const std::string& origin) {
    const auto tokens = tokens_of<3>(line);
    if (tokens[0] != kModelFileMagic) {
        return 0;
    }
    const std::string version(tokens[1]);
    if (version.size() < 2 || version[0] != 'v') {
        throw ParseError(origin, 1, 0,
                         "malformed format version '" + version + "'");
    }
    const char* begin = version.c_str() + 1;
    char* end = nullptr;
    const long parsed = std::strtol(begin, &end, 10);
    if (end != version.c_str() + version.size() || parsed <= 0) {
        throw ParseError(origin, 1, 0,
                         "malformed format version '" + version + "'");
    }
    if (parsed > kModelFormatVersion) {
        throw ParseError(origin, 1, 0,
                         "unsupported format version v" +
                             std::to_string(parsed) + " (this build reads up "
                             "to v" + std::to_string(kModelFormatVersion) +
                             ")");
    }
    if (tokens.size > 2) {
        throw ParseError(origin, 1, 0,
                         "trailing tokens after the format header");
    }
    return static_cast<int>(parsed);
}

/// Appends `value` as `ostream << setprecision(max_digits10)` prints it
/// (`%.17g`), so a read reproduces every double bit-for-bit.
void append_double(std::string& out, double value) {
    char buffer[32];
    const auto result = std::to_chars(
        buffer, buffer + sizeof buffer, value, std::chars_format::general,
        std::numeric_limits<double>::max_digits10);
    out.append(buffer, result.ptr);
}

/// `origin:line` plus `:column` when known.  Appended piece by piece:
/// GCC 12 misreports `":" + std::to_string(column)` under -Wrestrict.
std::string location(const std::string& origin, std::size_t line,
                     std::size_t column) {
    std::string text = origin;
    text += ':';
    text += std::to_string(line);
    if (column > 0) {
        text += ':';
        text += std::to_string(column);
    }
    return text;
}

} // namespace

ParseError::ParseError(std::string origin, std::size_t line,
                       std::size_t column, std::string reason)
    : Error(location(origin, line, column) + ": " + reason),
      origin_(std::move(origin)), line_(line), column_(column),
      reason_(std::move(reason)) {}

void write_speed_functions(std::string& out,
                           const std::vector<SpeedFunction>& models) {
    FPM_CHECK(!models.empty(), "nothing to save");
    out.append(kModelFileMagic).append(" v");
    out.append(std::to_string(kModelFormatVersion)).append(1, '\n');
    out.append(kColumnHeader).append(1, '\n');
    for (const auto& model : models) {
        FPM_CHECK(model.name().find(',') == std::string::npos,
                  "model names must not contain commas");
        // Every row of a model starts `name,max_problem,`.
        std::string prefix = model.name() + ',';
        if (std::isfinite(model.max_problem())) {
            append_double(prefix, model.max_problem());
        } else {
            prefix += "inf";
        }
        prefix += ',';
        for (const auto& point : model.points()) {
            out += prefix;
            append_double(out, point.x);
            out += ',';
            append_double(out, point.speed);
            out += '\n';
        }
    }
}

std::vector<SpeedFunction> read_speed_functions(std::string_view text,
                                                const std::string& origin) {
    std::string_view line;
    if (!next_line(text, line)) {
        throw ParseError(origin, 1, 0, "model input is empty");
    }
    std::size_t line_number = 1;
    const int version = parse_magic(line, origin);
    if (version > 0) {
        // v2+: the magic line is followed by the column header.
        if (!next_line(text, line)) {
            throw ParseError(origin, 2, 0,
                             "missing column header after the format header");
        }
        ++line_number;
    }
    if (line != kColumnHeader) {
        throw ParseError(origin, line_number, 0,
                         "unexpected column header '" + std::string(line) +
                             "' (want '" + std::string(kColumnHeader) + "')");
    }

    std::vector<SpeedFunction> models;
    std::string_view current_name;
    double current_max = std::numeric_limits<double>::infinity();
    std::vector<SpeedPoint> current_points;
    std::size_t model_first_line = 0;

    auto flush = [&]() {
        if (!current_points.empty()) {
            try {
                models.emplace_back(std::move(current_points),
                                    std::string(current_name), current_max);
            } catch (const Error& e) {
                throw ParseError(origin, model_first_line, 0,
                                 "invalid model '" + std::string(current_name) +
                                     "': " + std::string(e.message()));
            }
            current_points = {};
        }
    };

    while (next_line(text, line)) {
        ++line_number;
        if (line.empty()) {
            continue;
        }
        const auto cells = parts_of<4>(line, ',');
        if (cells.size != 4) {
            throw ParseError(origin, line_number, 0,
                             "expected 4 CSV cells, got " +
                                 std::to_string(cells.size));
        }

        const std::string_view name = cells[0];
        if (name != current_name || current_points.empty()) {
            if (name != current_name) {
                flush();
            }
            current_name = name;
            model_first_line = line_number;
            current_max =
                (cells[1] == "inf")
                    ? std::numeric_limits<double>::infinity()
                    : parse_cell(cells[1], origin, line_number, 2);
        }
        current_points.push_back(
            SpeedPoint{parse_cell(cells[2], origin, line_number, 3),
                       parse_cell(cells[3], origin, line_number, 4)});
    }
    flush();
    if (models.empty()) {
        throw ParseError(origin, line_number, 0, "model input holds no points");
    }
    return models;
}

void save_speed_functions_csv(const std::string& path,
                              const std::vector<SpeedFunction>& models) {
    std::string text;
    write_speed_functions(text, models);
    std::ofstream out(path);
    FPM_CHECK(out.good(), "cannot open model file for writing: " + path);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    FPM_CHECK(out.good(), "write failed: " + path);
}

std::vector<SpeedFunction> load_speed_functions_csv(const std::string& path) {
    std::ifstream in(path);
    FPM_CHECK(in.good(), "cannot open model file: " + path);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    return read_speed_functions(text, path);
}

} // namespace fpm::core
