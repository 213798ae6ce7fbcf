// The iostream model codec that fpm::core and fpm::store used before
// they moved to std::to_chars and in-place parsing, kept verbatim as the
// oracle of the byte-identity tests: write_speed_functions() must print
// the same bytes, read_speed_functions() must reach the same outcome, and
// a store must write the same WAL and snapshot bytes as these reference
// encoders plus a bytewise CRC-32.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "fpm/core/model_io.hpp"
#include "fpm/serve/model_registry.hpp"

namespace fpm::core::reference {

inline constexpr const char* kColumnHeader = "name,max_problem,x,speed";

inline std::vector<std::string> split_csv_line(const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(line);
    while (std::getline(stream, cell, ',')) {
        cells.push_back(cell);
    }
    return cells;
}

inline double parse_cell(const std::string& text, const std::string& origin,
                         std::size_t line, std::size_t column) {
    const char* begin = text.c_str();
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin || *end != '\0') {
        throw ParseError(origin, line, column,
                         "non-numeric value '" + text + "'");
    }
    return value;
}

inline int parse_magic(const std::string& line, const std::string& origin) {
    std::istringstream stream(line);
    std::string magic;
    std::string version;
    stream >> magic;
    if (magic != kModelFileMagic) {
        return 0;
    }
    stream >> version;
    if (version.size() < 2 || version[0] != 'v') {
        throw ParseError(origin, 1, 0,
                         "malformed format version '" + version + "'");
    }
    const char* begin = version.c_str() + 1;
    char* end = nullptr;
    const long parsed = std::strtol(begin, &end, 10);
    if (end == begin || *end != '\0' || parsed <= 0) {
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
    std::string trailing;
    if (stream >> trailing) {
        throw ParseError(origin, 1, 0,
                         "trailing tokens after the format header");
    }
    return static_cast<int>(parsed);
}

inline void write_speed_functions(std::ostream& out,
                                  const std::vector<SpeedFunction>& models) {
    FPM_CHECK(!models.empty(), "nothing to save");
    // Full precision so a load() reproduces every double bit-for-bit.
    out << std::setprecision(std::numeric_limits<double>::max_digits10);

    out << kModelFileMagic << " v" << kModelFormatVersion << '\n';
    out << kColumnHeader << '\n';
    for (const auto& model : models) {
        FPM_CHECK(model.name().find(',') == std::string::npos,
                  "model names must not contain commas");
        for (const auto& point : model.points()) {
            out << model.name() << ',';
            if (std::isfinite(model.max_problem())) {
                out << model.max_problem();
            } else {
                out << "inf";
            }
            out << ',' << point.x << ',' << point.speed << '\n';
        }
    }
    FPM_CHECK(out.good(), "model write failed");
}

inline std::vector<SpeedFunction> read_speed_functions(
    std::istream& in, const std::string& origin) {
    std::string line;
    if (!std::getline(in, line)) {
        throw ParseError(origin, 1, 0, "model input is empty");
    }
    std::size_t line_number = 1;
    const int version = parse_magic(line, origin);
    if (version > 0) {
        // v2+: the magic line is followed by the column header.
        if (!std::getline(in, line)) {
            throw ParseError(origin, 2, 0,
                             "missing column header after the format header");
        }
        ++line_number;
    }
    if (line != kColumnHeader) {
        throw ParseError(origin, line_number, 0,
                         "unexpected column header '" + line + "' (want '" +
                             kColumnHeader + "')");
    }

    std::vector<SpeedFunction> models;
    std::string current_name;
    double current_max = std::numeric_limits<double>::infinity();
    std::vector<SpeedPoint> current_points;
    std::size_t model_first_line = 0;

    auto flush = [&]() {
        if (!current_points.empty()) {
            try {
                models.emplace_back(std::move(current_points), current_name,
                                    current_max);
            } catch (const Error& e) {
                throw ParseError(origin, model_first_line, 0,
                                 "invalid model '" + current_name +
                                     "': " + std::string(e.message()));
            }
            current_points = {};
        }
    };

    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty()) {
            continue;
        }
        const auto cells = split_csv_line(line);
        if (cells.size() != 4) {
            throw ParseError(origin, line_number, 0,
                             "expected 4 CSV cells, got " +
                                 std::to_string(cells.size()));
        }

        const std::string& name = cells[0];
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

/// The model text as the iostream writer prints it.
inline std::string model_text(const std::vector<SpeedFunction>& models) {
    std::ostringstream out;
    write_speed_functions(out, models);
    return out.str();
}

/// The store's publish record as its iostream encoder wrote it.
inline std::string publish_record(const serve::ModelSet& set) {
    char fingerprint[20];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(set.fingerprint));
    std::ostringstream out;
    out << "publish " << set.name << ' ' << set.generation << ' '
        << fingerprint << '\n';
    write_speed_functions(out, set.models);
    return out.str();
}

/// CRC-32 one byte at a time with the bit-serial table.
inline std::uint32_t crc32_bytewise(const void* data, std::size_t size) {
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        }
        table[i] = c;
    }
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c = table[(c ^ bytes[i]) & 0xFF] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

/// A WAL frame built by hand: u32 length, u32 bytewise CRC (both LE),
/// then the payload.
inline std::string frame(const std::string& payload) {
    std::string out;
    const auto put = [&out](std::uint32_t value) {
        for (int shift = 0; shift < 32; shift += 8) {
            out.push_back(static_cast<char>((value >> shift) & 0xFF));
        }
    };
    put(static_cast<std::uint32_t>(payload.size()));
    put(crc32_bytewise(payload.data(), payload.size()));
    return out + payload;
}

} // namespace fpm::core::reference
