// fpmpart_bench — drive a partition server with the fpm::loadgen
// subsystem and emit a machine-readable BENCH_loadgen.json report.
//
// Two ways to target a server:
//
//   * spawn:  `--models NAME=FILE ...` starts an in-process reactor pool
//     (same engine/server stack as fpmpart_serve, honouring --reactors/
//     --threads/--cache/--cache-shards) on an ephemeral loopback port,
//     benches it, and tears it down — one command, no orchestration.
//   * attach: `--port P[,HOST:P...]` (with optional `--host` for bare
//     ports) benches an already running server.  More than one entry
//     makes the list a failover chain: every client walks it on typed
//     transport errors, so a primary/replica pair can be benched
//     through a mid-run primary kill (endpoint advances are reported as
//     `failovers`).  Unless `--sets` narrows the targets, the model
//     sets are discovered with a MODELS query.
//
// The workload (verb mix, problem sizes, arrival process) is fully
// seeded: two invocations with the same flags offer byte-identical
// request streams, and the report embeds a stream fingerprint proving
// it.  `--mode open` measures latency from each request's *scheduled*
// arrival and counts queue-full arrivals as drops, so coordinated
// omission shows up in the numbers instead of hiding in them — see
// docs/benchmarking.md for the methodology and the full JSON schema.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fpm/loadgen/runner.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/server.hpp"
#include "tool_args.hpp"

namespace {

bool parse_mix(const std::string& text, fpm::loadgen::WorkloadSpec* spec) {
    std::vector<double> weights;
    std::stringstream stream(text);
    std::string part;
    while (std::getline(stream, part, ':')) {
        try {
            weights.push_back(fpmtool::parse_number(part, "--mix"));
        } catch (const fpm::Error&) {
            return false;
        }
    }
    if (weights.size() != 4) {
        return false;
    }
    spec->partition_weight = weights[0];
    spec->stats_weight = weights[1];
    spec->health_weight = weights[2];
    spec->feedback_weight = weights[3];
    return true;
}

} // namespace

int main(int argc, char** argv) {
    using namespace fpm;
    try {
        std::vector<std::string> model_specs;
        std::vector<std::string> sets;
        std::string host = "127.0.0.1";
        std::string mode = "closed";
        std::string arrival = "poisson";
        std::string mix = "1:0:0:0";
        std::string algorithm = "fpm";
        std::string out_path = "BENCH_loadgen.json";
        loadgen::WorkloadSpec spec;
        loadgen::LoadConfig load;
        serve::ServeConfig server_config;
        serve::RequestEngine::Options engine_options;

        fpmtool::FlagTable flags("fpmpart_bench");
        std::string port_spec;
        flags.bind_list("--models", "NAME=FILE", &model_specs)
            .bind("--host", "ADDR", &host)
            .bind("--port", "P[,HOST:P...]", &port_spec)
            .bind_list("--sets", "NAME", &sets)
            .bind("--mode", "closed|open", &mode)
            .bind("--arrival", "poisson|uniform", &arrival)
            .bind("--rps", "X", &load.target_rps, 0.001)
            .bind("--duration", "SECONDS", &load.duration_seconds, 0.0)
            .bind("--requests", "N", &load.requests, 0)
            .bind("--connections", "N", &load.connections, 1, 4096)
            .bind("--think", "SECONDS", &load.think_time_seconds, 0.0)
            .bind("--outstanding", "N", &load.max_outstanding, 1)
            .bind("--seed", "N", &spec.seed, 1)
            .bind("--mix", "P:S:H:F", &mix)
            .bind("--n-min", "N", &spec.n_min, 1)
            .bind("--n-max", "N", &spec.n_max, 1)
            .bind("--algo", "fpm|cpm|even", &algorithm)
            .bind("--layout", "on|off", &spec.with_layout)
            .bind("--reactors", "N", &server_config.num_reactors, 1, 1024)
            .bind("--threads", "N", &engine_options.workers, 1, 4096)
            .bind("--cache", "N", &engine_options.cache_capacity, 1)
            .bind("--cache-shards", "N", &engine_options.cache_shards, 1, 4096)
            .bind("--out", "FILE", &out_path)
            .trace();
        if (!flags.parse(argc, argv)) {
            return 2;
        }

        if (mode != "closed" && mode != "open") {
            std::fprintf(stderr, "error: --mode expects closed|open\n%s",
                         flags.usage().c_str());
            return 2;
        }
        load.mode = mode == "open" ? loadgen::Mode::kOpen
                                   : loadgen::Mode::kClosed;
        if (arrival != "poisson" && arrival != "uniform") {
            std::fprintf(stderr, "error: --arrival expects poisson|uniform\n%s",
                         flags.usage().c_str());
            return 2;
        }
        load.arrival = arrival == "poisson" ? loadgen::Arrival::kPoisson
                                            : loadgen::Arrival::kUniform;
        if (!parse_mix(mix, &spec)) {
            std::fprintf(stderr,
                         "error: --mix expects four ':'-separated weights "
                         "(PARTITION:STATS:HEALTH:FEEDBACK), got '%s'\n%s",
                         mix.c_str(), flags.usage().c_str());
            return 2;
        }
        const auto algo = part::parse_algorithm(algorithm);
        if (!algo) {
            std::fprintf(stderr, "error: --algo expects fpm|cpm|even\n%s",
                         flags.usage().c_str());
            return 2;
        }
        spec.algorithm = *algo;
        if (model_specs.empty() && port_spec.empty()) {
            std::fprintf(stderr,
                         "error: nothing to bench — give --models to spawn "
                         "a server or --port to attach to one\n%s",
                         flags.usage().c_str());
            return 2;
        }
        // Attach mode takes a comma-separated failover list (bare port
        // or HOST:PORT per entry); spawn mode takes one bare port.
        std::vector<serve::Endpoint> endpoints;
        if (!port_spec.empty()) {
            try {
                endpoints = serve::parse_endpoint_list(port_spec, host);
            } catch (const Error& e) {
                fpmtool::print_error(e, "--port: ", flags.usage());
                return 2;
            }
            if (!model_specs.empty()) {
                if (endpoints.size() != 1 || endpoints.front().host != host) {
                    std::fprintf(stderr,
                                 "error: --port with --models (spawn mode) "
                                 "expects one bare port, got '%s'\n%s",
                                 port_spec.c_str(), flags.usage().c_str());
                    return 2;
                }
                server_config.port = endpoints.front().port;
            }
        }

        // Spawn mode: the same registry -> engine -> reactor-pool stack
        // fpmpart_serve runs, on an ephemeral loopback port.
        serve::ModelRegistry registry;
        std::unique_ptr<serve::RequestEngine> engine;
        std::unique_ptr<serve::SocketServer> server;
        if (!model_specs.empty()) {
            for (const auto& model_spec : model_specs) {
                const auto eq = model_spec.find('=');
                if (eq == std::string::npos || eq == 0 ||
                    eq + 1 == model_spec.size()) {
                    std::fprintf(stderr,
                                 "--models expects NAME=FILE, got '%s'\n%s",
                                 model_spec.c_str(), flags.usage().c_str());
                    return 2;
                }
                const std::string name = model_spec.substr(0, eq);
                registry.load_csv(name, model_spec.substr(eq + 1));
                if (sets.empty() || !flags.seen("--sets")) {
                    sets.push_back(name);
                }
            }
            engine = std::make_unique<serve::RequestEngine>(registry,
                                                            engine_options);
            server = std::make_unique<serve::SocketServer>(*engine,
                                                           server_config);
            server->start();
            load.host = "127.0.0.1";
            load.port = server->port();
            std::printf("spawned server on 127.0.0.1:%u (%zu reactor(s), "
                        "%u worker(s))\n",
                        load.port, server->num_reactors(),
                        engine_options.workers);
        } else {
            load.endpoints = endpoints;
            load.host = endpoints.front().host;
            load.port = endpoints.front().port;
            if (sets.empty()) {
                // Discover the target's model sets instead of guessing;
                // the probe itself fails over across the list.
                serve::ServeClient probe(endpoints, load.serve);
                serve::Request models;
                models.kind = serve::Request::Kind::kModels;
                for (const auto& info : probe.call(models).sets) {
                    sets.push_back(info.name);
                }
            }
            std::string attached;
            for (const auto& endpoint : endpoints) {
                attached += attached.empty() ? "" : ", ";
                attached += endpoint.to_string();
            }
            std::printf("attached to %s\n", attached.c_str());
        }
        spec.model_sets = sets;

        const loadgen::Report report = loadgen::run(spec, load);
        if (server) {
            server->stop();
        }

        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        FPM_CHECK(out.good(), "cannot write " + out_path);
        out << report.to_json();
        out.close();

        std::printf(
            "%s loop (%s): %llu scheduled = %llu sent + %llu dropped; "
            "%llu completed (%llu error(s), %llu degraded, "
            "%llu failover(s)) in %.3fs\n",
            report.mode.c_str(),
            report.arrival.empty() ? "n/a" : report.arrival.c_str(),
            static_cast<unsigned long long>(report.scheduled),
            static_cast<unsigned long long>(report.sent),
            static_cast<unsigned long long>(report.dropped),
            static_cast<unsigned long long>(report.completed),
            static_cast<unsigned long long>(report.errors),
            static_cast<unsigned long long>(report.degraded),
            static_cast<unsigned long long>(report.failovers),
            report.duration_seconds);
        std::printf("achieved %.1f req/s; latency us: p50 %.1f  p95 %.1f  "
                    "p99 %.1f  p99.9 %.1f  max %.1f\n",
                    report.achieved_rps, report.latency.p50_us,
                    report.latency.p95_us, report.latency.p99_us,
                    report.latency.p999_us, report.latency.max_us);
        std::printf("stream fingerprint %016llx; report written to %s\n",
                    static_cast<unsigned long long>(report.stream_fingerprint),
                    out_path.c_str());
        return 0;
    } catch (const std::exception& e) {
        fpmtool::print_error(e);
        return 1;
    }
}
