// fpmpart_feedback — replay served-execution measurements against a
// running fpmpart_serve.
//
// Reads a CSV of feedback samples and reports each one over the v4
// FEEDBACK verb, so recorded production traces (or synthetic drift
// scenarios) can be replayed against a live server to drive its online
// adaptation loop (see docs/adaptation.md).  Rows are pipelined in
// batches for throughput; the server ingests one connection's samples
// in the order they were written, so a pipelined replay prints the same
// summary as --batch 1.  The summary counts reliable windows, drift
// flags and republishes seen in the typed replies.
//
// CSV format (one sample per line, '#' comments and blank lines
// ignored):
//
//   set,device,problem_size,seconds
//   hybrid,0,4096,0.125
//
// Usage:
//   fpmpart_feedback --csv FILE [--host H] [--port P]
//                    [--repeat N] [--batch N] [--trace FILE]
//
// --repeat replays the whole file N times (default 1); --batch controls
// how many FEEDBACK lines are pipelined per round trip (default 32).
// Exits 0 when every sample got an OK reply, 1 when any sample was
// rejected (ERR) or the transport failed, 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/serve/client.hpp"
#include "tool_args.hpp"

namespace {

struct Row {
    fpm::serve::FeedbackSample sample;
    std::size_t line = 0;  // 1-based CSV line, for diagnostics
};

std::vector<Row> load_csv(const std::string& path) {
    std::ifstream in(path);
    FPM_CHECK(in.good(), "cannot open CSV file: " + path);
    std::vector<Row> rows;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string set, device, size, seconds, extra;
        const bool shaped = std::getline(fields, set, ',') &&
                            std::getline(fields, device, ',') &&
                            std::getline(fields, size, ',') &&
                            std::getline(fields, seconds) &&
                            !std::getline(fields, extra);
        FPM_CHECK(shaped && !set.empty(),
                  "line " + std::to_string(lineno) +
                      ": expected set,device,size,seconds");
        Row row;
        row.line = lineno;
        row.sample.model_set = set;
        row.sample.device = fpmtool::parse_int(
            device, "device (line " + std::to_string(lineno) + ")");
        errno = 0;
        char* end = nullptr;
        row.sample.problem_size = std::strtod(size.c_str(), &end);
        FPM_CHECK(end != size.c_str() && *end == '\0' && errno == 0,
                  "line " + std::to_string(lineno) +
                      ": malformed problem size: " + size);
        end = nullptr;
        row.sample.seconds = std::strtod(seconds.c_str(), &end);
        FPM_CHECK(end != seconds.c_str() && *end == '\0' && errno == 0,
                  "line " + std::to_string(lineno) +
                      ": malformed seconds: " + seconds);
        rows.push_back(row);
    }
    FPM_CHECK(!rows.empty(), "CSV file has no samples: " + path);
    return rows;
}

} // namespace

int main(int argc, char** argv) {
    using namespace fpm;
    try {
        std::string host = "127.0.0.1";
        std::string csv_path;
        std::uint16_t port = 0;
        long long repeat = 1;
        long long batch = 32;

        fpmtool::FlagTable flags("fpmpart_feedback");
        flags.bind("--csv", "FILE", &csv_path).require()
            .bind("--host", "H", &host)
            .bind("--port", "P", &port, 1, 65535).require()
            .bind("--repeat", "N", &repeat, 1)
            .bind("--batch", "N", &batch, 1)
            .trace();
        if (!flags.parse(argc, argv)) {
            return 2;
        }

        const std::vector<Row> rows = load_csv(csv_path);
        serve::ServeClient client(host, port);

        std::uint64_t sent = 0;
        std::uint64_t rejected = 0;
        std::uint64_t reliable = 0;
        std::uint64_t drift = 0;
        std::uint64_t republished = 0;
        std::uint64_t version = 0;
        for (long long pass = 0; pass < repeat; ++pass) {
            for (std::size_t base = 0; base < rows.size();
                 base += static_cast<std::size_t>(batch)) {
                const std::size_t count =
                    std::min(rows.size() - base,
                             static_cast<std::size_t>(batch));
                std::vector<std::string> lines;
                lines.reserve(count);
                for (std::size_t i = 0; i < count; ++i) {
                    serve::Request request;
                    request.kind = serve::Request::Kind::kFeedback;
                    request.feedback = rows[base + i].sample;
                    lines.push_back(request.encode());
                }
                const auto replies = client.pipeline(lines);
                for (std::size_t i = 0; i < replies.size(); ++i) {
                    ++sent;
                    const auto response = serve::Response::decode(replies[i]);
                    if (response.kind == serve::Response::Kind::kError) {
                        ++rejected;
                        std::fprintf(stderr,
                                     "line %zu rejected: ERR %s\n",
                                     rows[base + i].line,
                                     response.error.c_str());
                        continue;
                    }
                    const auto& reply = response.feedback;
                    reliable += reply.reliable ? 1 : 0;
                    drift += reply.drift ? 1 : 0;
                    republished += reply.republished ? 1 : 0;
                    version = reply.version;
                }
            }
        }

        std::printf("replayed %llu sample(s) (%lld pass(es)): "
                    "%llu reliable window(s), %llu drift flag(s), "
                    "%llu republish(es), model version %llu, "
                    "%llu rejected\n",
                    static_cast<unsigned long long>(sent), repeat,
                    static_cast<unsigned long long>(reliable),
                    static_cast<unsigned long long>(drift),
                    static_cast<unsigned long long>(republished),
                    static_cast<unsigned long long>(version),
                    static_cast<unsigned long long>(rejected));
        return rejected == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        fpmtool::print_error(e);
        return 1;
    }
}
