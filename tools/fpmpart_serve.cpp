// fpmpart_serve — run the partition service over TCP.
//
// Loads one or more model CSVs (built by fpmpart_model) into the
// fpm::serve model registry and answers the line protocol on a loopback
// TCP port with a pool of epoll reactors (pipelined requests, admission
// control, idle eviction; `--reactors N` > 1 binds N SO_REUSEPORT
// listeners and lets the kernel spread connections across them).  A
// reactor answers every PARTITION itself, computing a cache miss on its
// own thread, so `--reactors` is how many plans compute at once; the
// `--threads N` engine pool runs only FEEDBACK and LOAD:
//
//   PING                                    liveness probe
//   LOAD <name> <path>                      hot-(re)load a model set
//   PARTITION <model> <n> <algo> [nolayout] partition an n x n workload
//   FEEDBACK <model> <dev> <size> <secs>    report a measured execution
//   MODELS / STATS                          registry, cache and reactor counters
//   HEALTH                                  readiness + fault/degraded counters
//   QUIT                                    close this connection
//
// With `--adapt on` the server folds FEEDBACK samples into the served
// models online (fpm::adapt): reliable evidence refines the speed
// functions and sustained drift hot-publishes a new model version (see
// docs/adaptation.md).  Without it FEEDBACK answers
// `ERR feedback_disabled`.
//
// With `--store DIR` every published model generation (operator LOAD,
// adapt republish) is logged to a durable WAL + snapshot store
// (fpm::store) before it is acknowledged, and on startup the registry is
// recovered from that directory — after a crash the server serves the
// exact pre-crash generations, bit for bit (see docs/operations.md).
// `--models` sets already present in the recovered state are skipped.
//
// Replication (fpm::repl, docs/replication.md): `--repl-listen P` makes
// this server a primary that ships its store's publish records to
// connecting replicas (requires --store); `--replica-of HOST:PORT` makes
// it a hot-standby replica instead — it pulls the primary's publish
// stream, applies it through the same registry machinery, answers
// PARTITION/STATS/HEALTH/MODELS and rejects writes (LOAD, FEEDBACK) with
// `ERR read_only`, so it refuses `--models` and `--adapt on`.  A replica
// may itself carry `--store` for local durability.
//
// Fault drills: set FPMPART_FAULTS (see docs/operations.md) before
// launch to arm deterministic injection points; the armed rule count is
// printed on startup.
//
// Flags are declared once in the FlagTable below (which also generates
// the usage text); most bind straight onto ServeConfig/AdaptConfig
// fields, so defaults live in the config structs, not here.
//
// Port 0 (the default) picks an ephemeral port; the bound port is
// printed on startup.  The process serves until stdin reaches EOF
// (Ctrl-D) so it composes with shells, tests and process supervisors;
// shutdown drains in-flight requests gracefully.
#include <cstdio>
#include <memory>
#include <string>

#include "fpm/adapt/engine.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/repl/replication_log.hpp"
#include "fpm/repl/replication_server.hpp"
#include "fpm/repl/replicator.hpp"
#include "fpm/serve/server.hpp"
#include "fpm/store/model_store.hpp"
#include "tool_args.hpp"

int main(int argc, char** argv) {
    using namespace fpm;
    try {
        std::vector<std::string> model_specs;
        bool adapt_enabled = false;
        adapt::AdaptConfig adapt_config;
        serve::ServeConfig config;
        serve::RequestEngine::Options engine_options;
        std::string replica_of;
        std::uint16_t repl_listen = 0;

        fpmtool::FlagTable flags("fpmpart_serve");
        flags.bind_list("--models", "NAME=FILE", &model_specs)
            .bind("--port", "P", &config.port, 0, 65535)
            .bind("--bind", "ADDR", &config.bind_address)
            .bind("--reactors", "N", &config.num_reactors, 1, 1024)
            // The FEEDBACK/LOAD pool; PARTITION computes on the reactors.
            .bind("--threads", "N", &engine_options.workers, 1, 4096)
            .bind("--cache", "N", &engine_options.cache_capacity, 1)
            .bind("--cache-shards", "N", &engine_options.cache_shards, 1, 4096)
            .bind("--max-conns", "N", &config.max_connections, 1)
            .bind("--idle-timeout", "SECONDS", &config.idle_timeout, 0.0)
            .bind("--adapt", "on|off", &adapt_enabled)
            .bind("--adapt-min-samples", "N", &adapt_config.min_samples, 1)
            .bind("--adapt-max-samples", "N", &adapt_config.max_samples, 1)
            .bind("--adapt-rel-err", "X",
                  &adapt_config.target_relative_error, 0.0)
            .bind("--adapt-drift", "X", &adapt_config.drift_threshold, 0.0)
            .bind("--adapt-cusum", "X", &adapt_config.cusum_limit, 0.0)
            .bind("--store", "DIR", &config.store_dir)
            .bind("--store-fsync", "always|never", &config.fsync_policy)
            .bind("--store-snapshot-every", "N", &config.snapshot_every, 0)
            .bind("--replica-of", "HOST:PORT", &replica_of)
            .bind("--repl-listen", "P", &repl_listen, 0, 65535)
            .trace();
        if (!flags.parse(argc, argv)) {
            return 2;
        }
        // A server needs *some* source of models: CSVs, a recoverable
        // store, or a primary to replicate from.
        if (model_specs.empty() && config.store_dir.empty() &&
            replica_of.empty()) {
            std::fprintf(stderr,
                         "error: need --models, --store or --replica-of\n%s",
                         flags.usage().c_str());
            return 2;
        }
        // A replica's registry belongs to the replication stream;
        // generations published locally, by --models loads or adapt
        // republishes, would collide with it.
        if (!replica_of.empty() && !model_specs.empty()) {
            std::fprintf(stderr,
                         "error: --models cannot be combined with "
                         "--replica-of (models arrive from the primary)\n%s",
                         flags.usage().c_str());
            return 2;
        }
        if (!replica_of.empty() && adapt_enabled) {
            std::fprintf(stderr,
                         "error: --adapt cannot be combined with "
                         "--replica-of (replicas are read-only)\n%s",
                         flags.usage().c_str());
            return 2;
        }
        if (flags.seen("--repl-listen") && config.store_dir.empty()) {
            std::fprintf(stderr,
                         "error: --repl-listen requires --store "
                         "(replication ships the store's records)\n%s",
                         flags.usage().c_str());
            return 2;
        }
        // Validate --replica-of up front so a typo exits 2 with usage
        // like every other bad flag, before any server state exists.
        serve::Endpoint replica_source;
        if (!replica_of.empty()) {
            std::vector<serve::Endpoint> sources;
            try {
                sources = serve::parse_endpoint_list(replica_of, "127.0.0.1");
            } catch (const Error& e) {
                fpmtool::print_error(e, "--replica-of: ", flags.usage());
                return 2;
            }
            if (sources.size() != 1) {
                std::fprintf(stderr,
                             "error: --replica-of expects exactly one "
                             "HOST:PORT, got '%s'\n%s",
                             replica_of.c_str(), flags.usage().c_str());
                return 2;
            }
            replica_source = sources.front();
        }
        // AdaptEngine revalidates; this just fails before binding.
        if (adapt_config.max_samples < adapt_config.min_samples) {
            std::fprintf(stderr,
                         "error: --adapt-max-samples must be >= "
                         "--adapt-min-samples\n%s",
                         flags.usage().c_str());
            return 2;
        }
        // Validate even without --store: a typo'd policy must not be
        // silently ignored just because durability is off today.
        store::StoreOptions store_options;
        try {
            store_options.fsync_policy =
                store::parse_fsync_policy(config.fsync_policy);
        } catch (const Error& e) {
            fpmtool::print_error(e, "--store-fsync: ", flags.usage());
            return 2;
        }
        store_options.snapshot_every = config.snapshot_every;

        serve::ModelRegistry registry;

        // Durability first: recover what a previous process published,
        // then attach so every publish below (including the --models
        // loads) is write-ahead logged before it commits.
        std::unique_ptr<store::ModelStore> model_store;
        if (!config.store_dir.empty()) {
            model_store = std::make_unique<store::ModelStore>(config.store_dir,
                                                              store_options);
            const auto recovered = model_store->recover(registry);
            std::printf("store '%s': recovered generation %llu "
                        "(%zu set(s), snapshot gen %llu + %llu WAL record(s), "
                        "%llu torn byte(s) truncated), fsync %s, "
                        "snapshot every %llu\n",
                        config.store_dir.c_str(),
                        static_cast<unsigned long long>(
                            recovered.recovered_generation),
                        recovered.sets,
                        static_cast<unsigned long long>(
                            recovered.snapshot_generation),
                        static_cast<unsigned long long>(recovered.wal_records),
                        static_cast<unsigned long long>(
                            recovered.truncated_bytes),
                        std::string(to_string(store_options.fsync_policy))
                            .c_str(),
                        static_cast<unsigned long long>(
                            store_options.snapshot_every));
            model_store->attach(registry);
        }

        for (const auto& spec : model_specs) {
            const auto eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
                std::fprintf(stderr, "--models expects NAME=FILE, got '%s'\n%s",
                             spec.c_str(), flags.usage().c_str());
                return 2;
            }
            const std::string name = spec.substr(0, eq);
            if (registry.find(name) != nullptr) {
                // The recovered state is newer than the CSV on disk (it
                // may hold adapt refinements); keep it.
                std::printf("model set '%s' recovered from the store; "
                            "skipping %s\n",
                            name.c_str(), spec.substr(eq + 1).c_str());
                continue;
            }
            const auto set = registry.load_csv(name, spec.substr(eq + 1));
            std::printf("loaded model set '%s': %zu model(s), generation %llu\n",
                        set->name.c_str(), set->models.size(),
                        static_cast<unsigned long long>(set->generation));
        }

        // stats() touches the fault registry, which installs any
        // FPMPART_FAULTS plan on first use; enabled() alone would not.
        const auto fault_points = fault::stats();
        if (fault::enabled()) {
            std::size_t armed = 0;
            for (const auto& point : fault_points) {
                armed += point.rate > 0.0 ? 1 : 0;
            }
            std::printf("fault injection armed: %zu rule(s) from "
                        "FPMPART_FAULTS\n",
                        armed);
        }

        serve::RequestEngine engine(registry, engine_options);

        std::unique_ptr<adapt::AdaptEngine> adapter;
        if (adapt_enabled) {
            adapter = std::make_unique<adapt::AdaptEngine>(engine,
                                                           adapt_config);
            std::printf("online adaptation enabled: min %llu / max %llu "
                        "samples, rel-err %.3g, drift %.3g, cusum %.3g\n",
                        static_cast<unsigned long long>(
                            adapt_config.min_samples),
                        static_cast<unsigned long long>(
                            adapt_config.max_samples),
                        adapt_config.target_relative_error,
                        adapt_config.drift_threshold,
                        adapt_config.cusum_limit);
        }

        // Replication wiring (docs/replication.md).  The log/server pair
        // makes this process a primary; a Replicator makes it a replica.
        std::unique_ptr<repl::ReplicationLog> repl_log;
        std::unique_ptr<repl::ReplicationServer> repl_server;
        std::unique_ptr<repl::Replicator> replicator;
        if (flags.seen("--repl-listen")) {
            repl_log = std::make_unique<repl::ReplicationLog>(*model_store);
            repl::ReplServerConfig repl_config;
            repl_config.bind_address = config.bind_address;
            repl_config.port = repl_listen;
            repl_server = std::make_unique<repl::ReplicationServer>(
                *repl_log, repl_config);
            std::printf("replication primary: shipping records on %s:%u\n",
                        repl_config.bind_address.c_str(),
                        repl_server->port());
        }
        if (!replica_of.empty()) {
            engine.set_read_only(true);
            repl::ReplicatorConfig repl_config;
            repl_config.source = replica_source;
            repl_config.transport = config;
            replicator = std::make_unique<repl::Replicator>(
                engine, model_store.get(), repl_config);
            replicator->start();
            std::printf("replica of %s: serving read-only (writes answer "
                        "ERR read_only)\n",
                        repl_config.source.to_string().c_str());
        }

        serve::SocketServer server(engine, config);
        server.start();
        std::printf("fpmpart_serve listening on %s:%u (%zu reactor(s) "
                    "answering PARTITION, %u FEEDBACK/LOAD worker(s), "
                    "cache %zu in %zu shard(s), max %zu "
                    "conn(s), idle timeout %.3gs); Ctrl-D to stop\n",
                    config.bind_address.c_str(), server.port(),
                    server.num_reactors(), engine_options.workers,
                    engine_options.cache_capacity,
                    engine.stats().cache_shards, config.max_connections,
                    config.idle_timeout);
        std::fflush(stdout);

        // Serve until stdin closes; stop() drains in-flight work, then
        // the store takes its final compacted snapshot (no publishes can
        // arrive once the server and adapter are quiet).
        for (int ch = std::getchar(); ch != EOF; ch = std::getchar()) {
        }
        server.stop();
        if (replicator) {
            replicator->stop();
        }
        if (repl_server) {
            repl_server->stop();
        }
        if (repl_log) {
            repl_log->stop();
        }
        if (model_store) {
            model_store->stop();
            const auto store_stats = model_store->stats();
            std::printf("store: %llu append(s), %llu byte(s), "
                        "%llu snapshot(s)\n",
                        static_cast<unsigned long long>(store_stats.appended),
                        static_cast<unsigned long long>(store_stats.bytes),
                        static_cast<unsigned long long>(store_stats.snapshots));
        }

        // The shutdown dump reads the same typed ServerStats surface a
        // remote client gets from ServeClient::stats().
        const auto stats = serve::ServerStats::from_fields(
            serve::make_stats_reply(engine.stats(), registry.size()).fields);
        std::printf("served %zu connection(s), %llu request(s) "
                    "(%llu computed, %llu cache hit(s))\n",
                    server.connections_accepted(),
                    static_cast<unsigned long long>(stats.requests),
                    static_cast<unsigned long long>(stats.computed),
                    static_cast<unsigned long long>(stats.hits));
        std::printf("role %s: repl_lag_frames %llu, repl_lag_seconds %.3g, "
                    "repl_source %s, repl_applied_generation %llu\n",
                    stats.role.c_str(),
                    static_cast<unsigned long long>(stats.repl_lag_frames),
                    stats.repl_lag_seconds, stats.repl_source.c_str(),
                    static_cast<unsigned long long>(
                        stats.repl_applied_generation));
        if (adapter) {
            std::printf("adaptation: %llu sample(s), %llu reliable "
                        "window(s), %llu republish(es), model version %llu\n",
                        static_cast<unsigned long long>(stats.adapt_samples),
                        static_cast<unsigned long long>(stats.adapt_reliable),
                        static_cast<unsigned long long>(
                            stats.adapt_republished),
                        static_cast<unsigned long long>(
                            stats.adapt_model_version));
        }
        return 0;
    } catch (const std::exception& e) {
        fpmtool::print_error(e);
        return 1;
    }
}
