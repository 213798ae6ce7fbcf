// Tests for model persistence: CSV round-trips, the versioned `fpmmodel`
// magic header (v2 written, headerless v1 still read, newer rejected),
// CRLF files, ParseError line/column diagnostics, schema validation and
// failure injection with malformed files.  The ByteIdentity suite holds
// the codec to the iostream writer and reader it replaced
// (model_io_reference.hpp): the same bytes out on random sets, the same
// outcome on mutated files, and one test listing the deliberate
// differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

#include "fpm/common/rng.hpp"
#include "fpm/core/model_io.hpp"
#include "fpm/serve/model_registry.hpp"
#include "model_io_reference.hpp"

namespace fpm::core {
namespace {

class ModelIoTest : public ::testing::Test {
protected:
    std::string path_ = "/tmp/fpmpart_model_io_test.csv";

    void TearDown() override { std::remove(path_.c_str()); }

    void write_file(const std::string& content) {
        std::ofstream out(path_);
        out << content;
    }
};

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.5}, {100.0, 20.25}, {500.0, 18.125}}, "socket0"),
        SpeedFunction({{8.0, 900.0}, {1206.0, 950.0}}, "gtx680", 1206.0),
        SpeedFunction::constant(42.0, "cpm-device"),
    };
    save_speed_functions_csv(path_, models);
    const auto loaded = load_speed_functions_csv(path_);

    ASSERT_EQ(loaded.size(), models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
        EXPECT_EQ(loaded[i].name(), models[i].name());
        ASSERT_EQ(loaded[i].points().size(), models[i].points().size());
        for (std::size_t p = 0; p < models[i].points().size(); ++p) {
            EXPECT_DOUBLE_EQ(loaded[i].points()[p].x, models[i].points()[p].x);
            EXPECT_DOUBLE_EQ(loaded[i].points()[p].speed,
                             models[i].points()[p].speed);
        }
        if (std::isfinite(models[i].max_problem())) {
            EXPECT_DOUBLE_EQ(loaded[i].max_problem(), models[i].max_problem());
        } else {
            EXPECT_TRUE(std::isinf(loaded[i].max_problem()));
        }
    }
}

TEST_F(ModelIoTest, RoundTripIsBitExactForAwkwardDoubles) {
    // Values with no short decimal form: writing at default ostream
    // precision (~6 digits) would corrupt them.  Persistence must use
    // max_digits10 so every double survives the CSV round trip exactly.
    const double third = 1.0 / 3.0;
    const double pi = 3.14159265358979323846;
    const double tiny_sum = 0.1 + 0.2;  // 0.30000000000000004
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{third, 123456.789012345678},
                       {pi, 1e17 / 3.0},
                       {97.0 / 7.0, tiny_sum}},
                      "awkward", 1e6 * pi),
    };
    save_speed_functions_csv(path_, models);
    const auto loaded = load_speed_functions_csv(path_);

    ASSERT_EQ(loaded.size(), 1U);
    ASSERT_EQ(loaded[0].points().size(), models[0].points().size());
    for (std::size_t p = 0; p < models[0].points().size(); ++p) {
        // Exact equality, not near-equality: bit-for-bit round trip.
        EXPECT_EQ(loaded[0].points()[p].x, models[0].points()[p].x);
        EXPECT_EQ(loaded[0].points()[p].speed, models[0].points()[p].speed);
    }
    EXPECT_EQ(loaded[0].max_problem(), models[0].max_problem());
}

TEST_F(ModelIoTest, LoadedModelInterpolatesIdentically) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}, {40.0, 25.0}, {100.0, 40.0}}, "ramp"),
    };
    save_speed_functions_csv(path_, models);
    const auto loaded = load_speed_functions_csv(path_);
    for (double x = 5.0; x <= 150.0; x += 7.0) {
        EXPECT_DOUBLE_EQ(loaded[0].speed(x), models[0].speed(x)) << x;
    }
}

TEST_F(ModelIoTest, SaveValidation) {
    EXPECT_THROW(save_speed_functions_csv(path_, {}), fpm::Error);
    EXPECT_THROW(save_speed_functions_csv(
                     "/nonexistent-dir/m.csv",
                     {SpeedFunction::constant(1.0, "a")}),
                 fpm::Error);
    EXPECT_THROW(
        save_speed_functions_csv(path_, {SpeedFunction::constant(1.0, "a,b")}),
        fpm::Error);
}

TEST_F(ModelIoTest, MissingFileThrows) {
    EXPECT_THROW(load_speed_functions_csv("/tmp/does-not-exist-fpmpart.csv"),
                 fpm::Error);
}

TEST_F(ModelIoTest, BadHeaderThrows) {
    write_file("nope,nope\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
}

TEST_F(ModelIoTest, MalformedRowThrows) {
    write_file("name,max_problem,x,speed\ndev,inf,10\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
    write_file("name,max_problem,x,speed\ndev,inf,abc,5\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
}

TEST_F(ModelIoTest, EmptyBodyThrows) {
    write_file("name,max_problem,x,speed\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
}

TEST_F(ModelIoTest, InvalidPointsRejectedByModelInvariants) {
    // Negative speed violates the SpeedFunction contract on load.
    write_file("name,max_problem,x,speed\ndev,inf,10,-5\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
    // Duplicate x likewise.
    write_file("name,max_problem,x,speed\ndev,inf,10,5\ndev,inf,10,6\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
}

TEST_F(ModelIoTest, BlankLinesIgnored) {
    write_file("name,max_problem,x,speed\ndev,inf,10,5\n\ndev,inf,20,6\n");
    const auto loaded = load_speed_functions_csv(path_);
    ASSERT_EQ(loaded.size(), 1U);
    EXPECT_EQ(loaded[0].points().size(), 2U);
}

TEST_F(ModelIoTest, WritesTheV2MagicHeader) {
    save_speed_functions_csv(path_, {SpeedFunction::constant(1.0, "dev")});
    std::ifstream in(path_);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line));
    EXPECT_EQ(first_line, std::string(kModelFileMagic) + " v" +
                              std::to_string(kModelFormatVersion));
}

TEST_F(ModelIoTest, HeaderlessV1FilesStillLoad) {
    write_file("name,max_problem,x,speed\ndev,inf,10,5\ndev,inf,20,6\n");
    const auto loaded = load_speed_functions_csv(path_);
    ASSERT_EQ(loaded.size(), 1U);
    EXPECT_EQ(loaded[0].points().size(), 2U);
}

TEST_F(ModelIoTest, NewerFormatVersionsAreRejectedNotMisparsed) {
    write_file("fpmmodel v" + std::to_string(kModelFormatVersion + 1) +
               "\nname,max_problem,x,speed\ndev,inf,10,5\n");
    try {
        (void)load_speed_functions_csv(path_);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 1U);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST_F(ModelIoTest, ParseErrorPinpointsLineAndColumn) {
    // Row 3 of the file (header, good row, bad row); the non-numeric
    // speed sits in CSV column 4.
    write_file("fpmmodel v2\nname,max_problem,x,speed\ndev,inf,10,5\n"
               "dev,inf,20,bogus\n");
    try {
        (void)load_speed_functions_csv(path_);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.origin(), path_);
        EXPECT_EQ(e.line(), 4U);
        EXPECT_EQ(e.column(), 4U);
        EXPECT_NE(std::string(e.what()).find(path_), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("4"), std::string::npos);
    }
}

TEST_F(ModelIoTest, StreamEntryPointsRoundTripAndLabelTheOrigin) {
    // The durable store embeds model text in WAL records through the
    // in-memory API, which appends to the caller's string; the
    // caller-supplied origin labels its diagnostics.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.5}, {100.0, 20.25}}, "socket0"),
        SpeedFunction({{8.0, 900.0}, {1206.0, 950.0}}, "gtx680", 1206.0),
    };
    std::string out = "record header\n";
    write_speed_functions(out, models);
    ASSERT_TRUE(out.starts_with("record header\nfpmmodel v2\n"));

    const auto loaded = read_speed_functions(
        std::string_view(out).substr(out.find('\n') + 1), "wal record");
    ASSERT_EQ(loaded.size(), 2U);
    EXPECT_EQ(loaded[0].name(), "socket0");
    EXPECT_EQ(loaded[1].name(), "gtx680");

    const std::string bad = "fpmmodel v2\nname,max_problem,x,speed\nd,inf,1\n";
    try {
        (void)read_speed_functions(bad, "wal record");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.origin(), "wal record");
        EXPECT_NE(std::string(e.what()).find("wal record"),
                  std::string::npos);
    }
}

TEST_F(ModelIoTest, CrlfFileLoadsToTheSameFingerprintAsItsLfTwin) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.5}, {100.0, 20.25}}, "socket0"),
        SpeedFunction({{8.0, 900.0}, {1206.0, 950.0}}, "gtx680", 1206.0),
    };
    std::string lf;
    write_speed_functions(lf, models);
    std::string crlf;
    for (const char c : lf) {
        crlf += c == '\n' ? "\r\n" : std::string(1, c);
    }
    const auto fingerprint = serve::fingerprint_models(models);

    write_file(crlf);
    EXPECT_EQ(serve::fingerprint_models(load_speed_functions_csv(path_)),
              fingerprint);
    // An LF header over a CRLF body, as an editor appending rows makes.
    const std::size_t body = lf.find('\n', lf.find('\n') + 1) + 1;
    write_file(lf.substr(0, body) + crlf.substr(crlf.find("socket0")));
    EXPECT_EQ(serve::fingerprint_models(load_speed_functions_csv(path_)),
              fingerprint);
    // A headerless v1 file with a blank CRLF line.
    write_file("name,max_problem,x,speed\r\ndev,inf,10,5\r\n\r\n"
               "dev,inf,20,6\r\n");
    EXPECT_EQ(load_speed_functions_csv(path_)[0].points().size(), 2U);
}

TEST_F(ModelIoTest, ScaledCopy) {
    const SpeedFunction fn({{10.0, 4.0}, {20.0, 8.0}}, "dev", 30.0);
    const SpeedFunction doubled = fn.scaled(2.0);
    EXPECT_DOUBLE_EQ(doubled.speed(10.0), 8.0);
    EXPECT_DOUBLE_EQ(doubled.speed(20.0), 16.0);
    EXPECT_DOUBLE_EQ(doubled.max_problem(), 30.0);
    EXPECT_EQ(doubled.name(), "dev");
    EXPECT_THROW(fn.scaled(0.0), fpm::Error);
}

// --- byte identity with the iostream codec --------------------------------

/// A positive double from a denormal to about 1e300: a uniform binary
/// exponent and a random 52-bit mantissa, or now and then a short
/// decimal, an integer or the smallest denormal.
double random_magnitude(Rng& rng) {
    switch (rng.uniform_int(0, 7)) {
    case 0:
        return static_cast<double>(rng.uniform_int(1, 100000));
    case 1:
        return static_cast<double>(rng.uniform_int(1, 9999)) / 100.0;
    case 2:
        return std::numeric_limits<double>::denorm_min() *
               static_cast<double>(rng.uniform_int(1, 1 << 20));
    default: {
        const double mantissa =
            1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;
        return std::ldexp(mantissa,
                          static_cast<int>(rng.uniform_int(-1074, 996)));
    }
    }
}

/// A valid set of `devices` models with `points` knots each; a quarter
/// of them carry an `inf` capacity.
std::vector<SpeedFunction> random_set(Rng& rng, std::int64_t devices,
                                      std::int64_t points) {
    std::vector<SpeedFunction> models;
    for (std::int64_t d = 0; d < devices; ++d) {
        std::set<double> xs;
        while (static_cast<std::int64_t>(xs.size()) < points) {
            xs.insert(random_magnitude(rng));
        }
        std::vector<SpeedPoint> knots;
        for (const double x : xs) {
            knots.push_back(SpeedPoint{x, random_magnitude(rng)});
        }
        const double capacity =
            rng.uniform_int(0, 3) == 0
                ? std::numeric_limits<double>::infinity()
                : std::max(knots.back().x * rng.uniform(1.0, 2.0),
                           knots.back().x);
        std::string name = "dev" + std::to_string(d);
        if (rng.uniform_int(0, 5) == 0) {
            name += " \t~\xC3\xA9";  // blanks and UTF-8 are legal in names
        }
        models.emplace_back(std::move(knots), std::move(name), capacity);
    }
    return models;
}

/// What a read came to: the models' fingerprint, or the ParseError's
/// line, column and reason, or any other exception's text.
std::string outcome(const std::function<std::vector<SpeedFunction>()>& read) {
    try {
        const auto models = read();
        return "ok " + std::to_string(models.size()) + " " +
               std::to_string(serve::fingerprint_models(models));
    } catch (const ParseError& e) {
        return "ParseError " + e.origin() + ":" + std::to_string(e.line()) +
               ":" + std::to_string(e.column()) + ": " + e.reason();
    } catch (const std::exception& e) {
        return std::string("exception ") + e.what();
    }
}

std::string new_outcome(const std::string& text) {
    return outcome([&] { return read_speed_functions(text, "m"); });
}

std::string reference_outcome(const std::string& text) {
    return outcome([&] {
        std::istringstream in(text);
        return reference::read_speed_functions(in, "m");
    });
}

TEST(ByteIdentity, WriterMatchesTheIostreamWriterOnRandomSets) {
    Rng rng(20260);
    for (int round = 0; round < 1200; ++round) {
        const auto models = random_set(rng, rng.uniform_int(1, 8),
                                       rng.uniform_int(1, 40));
        std::string text;
        write_speed_functions(text, models);
        ASSERT_EQ(text, reference::model_text(models)) << "round " << round;
        // And the text reads back bit-for-bit.
        ASSERT_EQ(serve::fingerprint_models(read_speed_functions(text, "m")),
                  serve::fingerprint_models(models))
            << "round " << round;
    }
}

/// Cells the mutator swaps in for a numeric cell: every spelling strtod
/// and the old stream reader treat alike, and some they both refuse.
const char* const kOddCells[] = {
    "+5",      "-5",     "+1e3",    "0x1p3",    "0X1.8P+2", "inf",
    "-inf",    "nan",    "INF",     "infinity", "NaN",      "1e400",
    "1e-400",  "",       " ",       "5 ",       " 5",       "\t5",
    "abc",     "1.5.5",  "1e",      ".5",       "5.",       "0",
    "-0",      "00012",  "1_000",   "\v7",      "4\f",      "0x",
};

/// One random edit of `text`; the edits never add a `\r` or a NUL byte,
/// where the two readers differ on purpose (see DeliberateDifferences).
void mutate(Rng& rng, std::string& text) {
    const auto at = [&](std::size_t size) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size)));
    };
    const auto line_starts = [&] {
        std::vector<std::size_t> starts = {0};
        for (std::size_t i = 0; i + 1 < text.size(); ++i) {
            if (text[i] == '\n') {
                starts.push_back(i + 1);
            }
        }
        return starts;
    };
    switch (rng.uniform_int(0, 9)) {
    case 0: {  // byte flip
        static const std::string kBytes =
            "0123456789.,-+eExXpPinfaINFA \t\v\f\n#v\x01\x7F\x80\xFF";
        if (!text.empty()) {
            text[at(text.size() - 1)] = kBytes[at(kBytes.size() - 1)];
        }
        break;
    }
    case 1:  // truncation
        text.resize(at(text.size()));
        break;
    case 2:  // an extra comma
        text.insert(at(text.size()), 1, ',');
        break;
    case 3: {  // a missing comma
        const std::size_t comma = text.find(',', at(text.size()));
        if (comma != std::string::npos) {
            text.erase(comma, 1);
        }
        break;
    }
    case 4: {  // a trailing comma, or two, on some line
        const std::size_t newline = text.find('\n', at(text.size()));
        text.insert(newline == std::string::npos ? text.size() : newline,
                    rng.uniform_int(0, 1) == 0 ? "," : ",,");
        break;
    }
    case 5: {  // a blank line
        const auto starts = line_starts();
        text.insert(starts[at(starts.size() - 1)], "\n");
        break;
    }
    case 6:  // a blank inside a cell
        text.insert(at(text.size()), 1,
                    rng.uniform_int(0, 1) == 0 ? ' ' : '\t');
        break;
    case 7: {  // an odd or 400-digit numeric cell
        const std::size_t comma = text.find(',', at(text.size()));
        if (comma == std::string::npos) {
            break;
        }
        const std::size_t end = std::min(text.find_first_of(",\n", comma + 1),
                                         text.size());
        std::string cell = kOddCells[at(std::size(kOddCells) - 1)];
        if (rng.uniform_int(0, 3) == 0) {
            // 400 digits, or either side of the reader's 64-byte stack copy.
            const std::size_t lengths[] = {400, 63, 64, 65};
            cell = "0." + std::string(lengths[at(3)] - 2, '3');
            if (rng.uniform_int(0, 1) == 0) {
                cell[0] = '1';
                cell[1] = '0';
            }
        }
        text.replace(comma + 1, end - comma - 1, cell);
        break;
    }
    case 8: {  // a v1 headerless file
        const std::size_t newline = text.find('\n');
        if (text.starts_with("fpmmodel") && newline != std::string::npos) {
            text.erase(0, newline + 1);
        }
        break;
    }
    default: {  // a wrong or odd format header
        static const char* const kHeaders[] = {
            "fpmmodel v0",       "fpmmodel v3",   "fpmmodel v-1",
            "fpmmodel v+2",      "fpmmodel v",    "fpmmodel 2",
            "fpmmodel",          "fpmmodel\tv2",  " fpmmodel v2",
            "fpmmodel v02",      "fpmmodel v1",   "fpmmodelv2",
            "fpmmodel v2x",      "FPMMODEL v2",   "fpmmodel v1e1",
            "fpmmodel v2 extra", "fpmmodel v2 \t",
            "fpmmodel v99999999999999999999",
        };
        const std::size_t newline = text.find('\n');
        text.replace(0, newline == std::string::npos ? text.size() : newline,
                     kHeaders[at(std::size(kHeaders) - 1)]);
        break;
    }
    }
}

TEST(ByteIdentity, ReaderMatchesTheIostreamReaderOnMutatedFiles) {
    Rng rng(7771);
    int accepted = 0;
    for (int round = 0; round < 24000; ++round) {
        auto models = random_set(rng, rng.uniform_int(1, 4),
                                 rng.uniform_int(1, 6));
        std::string text;
        write_speed_functions(text, models);
        for (std::int64_t edits = rng.uniform_int(1, 3); edits > 0; --edits) {
            mutate(rng, text);
        }
        const std::string expected = reference_outcome(text);
        ASSERT_EQ(new_outcome(text), expected)
            << "round " << round << ", text:\n" << text;
        accepted += expected.starts_with("ok ") ? 1 : 0;
    }
    // Both outcomes were exercised in bulk.
    EXPECT_GT(accepted, 3000);
    EXPECT_LT(accepted, 21000);
}

TEST(ByteIdentity, DeliberateDifferencesFromTheIostreamReader) {
    const std::string lf =
        "fpmmodel v2\nname,max_problem,x,speed\ndev,inf,10,5\ndev,inf,20,6\n";
    const std::string ok = new_outcome(lf);
    ASSERT_TRUE(ok.starts_with("ok 1 ")) << ok;
    ASSERT_EQ(reference_outcome(lf), ok);

    // 1. CRLF line endings load (the old reader saw the `\r` as part of
    //    the last cell or the column header).
    const std::string crlf =
        "fpmmodel v2\r\nname,max_problem,x,speed\r\ndev,inf,10,5\r\n\r\n"
        "dev,inf,20,6\r\n";
    EXPECT_EQ(new_outcome(crlf), ok);
    EXPECT_EQ(reference_outcome(crlf),
              "ParseError m:2:0: unexpected column header "
              "'name,max_problem,x,speed\r' (want 'name,max_problem,x,speed')");
    const std::string crlf_body =
        "fpmmodel v2\nname,max_problem,x,speed\ndev,inf,10,5\r\n"
        "dev,inf,20,6\r\n";
    EXPECT_EQ(new_outcome(crlf_body), ok);
    EXPECT_EQ(reference_outcome(crlf_body),
              "ParseError m:3:4: non-numeric value '5\r'");

    // 2. A NUL byte inside a numeric cell or the version is refused: the
    //    old reader handed strtod/strtol a C string and stopped there.
    using namespace std::string_literals;
    const std::string nul_cell =
        "fpmmodel v2\nname,max_problem,x,speed\ndev,inf,10,5\0junk\n"
        "dev,inf,20,6\n"s;
    EXPECT_EQ(new_outcome(nul_cell),
              "ParseError m:3:4: non-numeric value '5\0junk'"s);
    EXPECT_EQ(reference_outcome(nul_cell), ok);
    const std::string nul_version =
        "fpmmodel v2\0x\n"s + lf.substr(lf.find('\n') + 1);
    EXPECT_EQ(new_outcome(nul_version),
              "ParseError m:1:0: malformed format version 'v2\0x'"s);
    EXPECT_EQ(reference_outcome(nul_version), ok);
}

} // namespace
} // namespace fpm::core
