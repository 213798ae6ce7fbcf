// One pass of a workload: set-ups, the timed closed loop, the checks.
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>
#include <time.h>
#include <unordered_map>

#include "bench.hpp"
#include "fpm/core/model_io.hpp"
#include "fpm/obs/metrics.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using fpm::serve::Request;
using fpm::serve::Response;

/// The serving stack's own obs histograms read by the traced pass.
constexpr const char* kStackHistograms[] = {
    "serve.reactor.queue_to_reply_seconds",
    "rt.pool.queue_wait_seconds",
    "repl.apply_seconds",
};

double thread_cpu_seconds() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_seconds() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One serving process: a child (gated passes) or threads of this
/// process (traced passes).
struct Node {
    std::unique_ptr<ChildProcess> child;
    std::unique_ptr<Stack> stack;
    std::uint16_t port = 0;
    std::uint16_t repl_port = 0;

    void stop() {
        if (child) {
            child->stop();
        }
        if (stack) {
            stack->stop();
        }
    }
};

Node start_node(const RunOptions& options, bool in_process,
                const StackOptions& stack) {
    Node node;
    if (in_process) {
        node.stack = std::make_unique<Stack>(stack);
        node.port = node.stack->port();
        node.repl_port = node.stack->repl_port();
        return node;
    }
    std::vector<std::string> args{options.self_exe, "serve"};
    if (stack.adapt) {
        args.emplace_back("--adapt");
    }
    if (!stack.store_dir.empty()) {
        args.insert(args.end(), {"--store", stack.store_dir});
    }
    if (stack.repl_listen) {
        args.emplace_back("--repl-listen");
    }
    if (stack.replica_of != 0) {
        args.insert(args.end(),
                    {"--replica-of", std::to_string(stack.replica_of)});
    }
    node.child = std::make_unique<ChildProcess>(args);
    node.port = node.child->port();
    node.repl_port = node.child->repl_port();
    return node;
}

/// One set-up: the model sets built and loaded into a fresh stack, the
/// replica caught up, the plan cache filled.
class Deployment {
public:
    Deployment(const RunOptions& options, const Stream& stream,
               bool in_process, Tracer* tracer, int index)
        : publish_(options.workload->kind == WorkloadKind::kPublishReplicate),
          dir_(options.work_dir + "/setup-" + std::to_string(index)) {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        sets = build_model_sets(*options.workload, options.seed, tracer);

        StackOptions primary_options;
        if (publish_) {
            primary_options.adapt = true;
            primary_options.store_dir = dir_ + "/primary-store";
            primary_options.repl_listen = true;
        }
        primary = start_node(options, in_process, primary_options);
        client = std::make_unique<fpm::serve::ServeClient>("127.0.0.1",
                                                           primary.port);
        if (publish_) {
            StackOptions replica_options;
            replica_options.store_dir = dir_ + "/replica-store";
            replica_options.replica_of = primary.repl_port;
            replica = start_node(options, in_process, replica_options);
            replica_client = std::make_unique<fpm::serve::ServeClient>(
                "127.0.0.1", replica.port);
            watch = std::make_unique<DirWatch>(replica_options.store_dir);
        }

        // LOAD over the wire; the reply's fingerprint proves the served
        // snapshot is the reference the checks compute against.
        std::uint64_t generation = 0;
        for (const auto& set : sets) {
            Request load;
            load.kind = Request::Kind::kLoad;
            load.name = set.name;
            load.path = dir_ + "/" + set.name + ".csv";
            fpm::core::save_speed_functions_csv(load.path, set.models);
            const Response reply = client->call(load);
            FPM_CHECK(reply.kind == Response::Kind::kLoaded &&
                          reply.loaded.fingerprint ==
                              fpm::serve::fingerprint_models(set.models),
                      "LOAD " + set.name + " failed: " + reply.encode());
            generation = reply.loaded.generation;
        }
        if (publish_) {
            (void)wait_visible(generation);
        }
        for (const auto& line : stream.warmup) {
            const std::string reply = client->request(line);
            FPM_CHECK(reply.rfind("OK PARTITION ", 0) == 0,
                      "warm-up request failed: " + reply);
        }
    }

    ~Deployment() {
        try {
            shutdown();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: shutdown failed: %s\n",
                         e.what());
        }
    }

    /// Stops the replica, then the primary; idempotent.
    void shutdown() {
        replica_client.reset();
        client.reset();
        watch.reset();
        replica.stop();
        primary.stop();
    }

    /// Blocks until the replica reports `generation` applied; returns
    /// when it saw it.  Wakes on the replica's store writes (every
    /// applied publish is appended there) instead of polling at a
    /// fixed interval, whose period would become the measurement; the
    /// 50 ms timeout only guards against a missed wake-up.
    Clock::time_point wait_visible(std::uint64_t generation) {
        const auto applied = [&] {
            return replica_client->health().repl_applied_generation >=
                   generation;
        };
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        (void)watch->wait(0);  // wake-ups left over from earlier publishes
        for (;;) {
            if (applied()) {
                return Clock::now();
            }
            FPM_CHECK(Clock::now() < deadline,
                      "replica did not apply generation " +
                          std::to_string(generation) + " within 30 s");
            if (watch->wait(50)) {
                // The registry commits just after the store write.
                const auto spin_end =
                    Clock::now() + std::chrono::milliseconds(2);
                while (Clock::now() < spin_end) {
                    if (applied()) {
                        return Clock::now();
                    }
                }
            }
        }
    }

    [[nodiscard]] const std::string& dir() const { return dir_; }

    std::vector<ModelSetSpec> sets;
    Node primary;
    Node replica;
    std::unique_ptr<fpm::serve::ServeClient> client;
    std::unique_ptr<fpm::serve::ServeClient> replica_client;
    std::unique_ptr<DirWatch> watch;

private:
    bool publish_;
    std::string dir_;
};

/// Counters of the serving stack, read at both ends of the timed phase.
struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t computed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t appends = 0;
    std::uint64_t bytes = 0;
    std::uint64_t snapshots = 0;
    std::optional<std::uint64_t> reconnects;
    std::optional<std::uint64_t> transfers;
    double server_cpu_s = 0.0;
    std::map<std::string, fpm::obs::HistogramSnapshot> histograms;
};

Counters read_counters(Deployment& d) {
    Counters c;
    const auto stats = d.client->stats();
    c.hits = stats.hits;
    c.computed = stats.computed;
    c.degraded = stats.degraded;
    if (d.primary.child) {
        c.appends = stats.store_appended;
        c.bytes = stats.store_bytes;
        c.snapshots = stats.store_snapshots;
        c.server_cpu_s = d.primary.child->cpu_seconds() +
                         (d.replica.child ? d.replica.child->cpu_seconds() : 0.0);
        return c;
    }
    // In-process: the obs registry is shared with the replica and the
    // shadow, so per-object counters stand in for the STATS store_*
    // fields, which read it.
    if (auto* store = d.primary.stack->store()) {
        const auto store_stats = store->stats();
        c.appends = store_stats.appended;
        c.bytes = store_stats.bytes;
        c.snapshots = store_stats.snapshots;
    }
    if (d.replica.stack) {
        c.reconnects = d.replica.stack->replicator()->reconnects();
        c.transfers = d.replica.stack->replicator()->snapshots_received();
    }
    for (const char* name : kStackHistograms) {
        c.histograms[name] =
            fpm::obs::MetricsRegistry::global().histogram(name).snapshot();
    }
    c.server_cpu_s = process_cpu_seconds() - thread_cpu_seconds();
    return c;
}

/// Every set's (generation, fingerprint) in a registry, by name.
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
published(const fpm::serve::ModelRegistry& registry) {
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> sets;
    for (const auto& set : registry.snapshot()) {
        sets[set->name] = {set->generation, set->fingerprint};
    }
    return sets;
}

/// The published state a stopped stack left in its store directory.
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
recovered(const std::string& dir) {
    fpm::serve::ModelRegistry registry;
    fpm::store::ModelStore store(dir, store_options());
    (void)store.recover(registry);
    store.abandon();  // read-only: no final snapshot
    return published(registry);
}

void fail(PassResult& result, const std::string& why) {
    result.correct = false;
    if (result.failures.size() < 4) {
        result.failures.push_back(why);
    }
}

/// Times requests [begin, end) of the stream on one deployment, then
/// stops it and checks every reply; adds what it measured to `result`.
void run_segment(const Workload& workload, const Stream& stream,
                 std::size_t begin, std::size_t end, Deployment& d,
                 Tracer* tracer, PassResult& result) {
    const bool publish = workload.kind == WorkloadKind::kPublishReplicate;
    // In a traced pass the shadow replays each request as it is served;
    // otherwise it is built after timing, for the checks alone.
    std::unique_ptr<Shadow> shadow;
    if (tracer != nullptr) {
        shadow = std::make_unique<Shadow>(
            workload, d.sets, publish ? d.dir() + "/shadow-store" : "",
            tracer);
        for (const auto& line : stream.warmup) {
            shadow->warm(Request::decode(line).partition);
        }
    }

    const std::size_t n = end - begin;
    std::vector<std::uint64_t> reply_hash(n, 0);
    std::vector<std::uint64_t> expected_hash(n, 0);
    std::vector<char> lost(n, 0);
    // Distinct reply texts, keyed by their hash: served and expected.
    std::unordered_map<std::uint64_t, std::string> texts;
    std::unordered_map<std::uint64_t, std::string> expected_texts;
    const std::hash<std::string_view> hasher;
    const auto expect = [&](std::size_t j, std::string text) {
        expected_hash[j] = hasher(text);
        expected_texts.try_emplace(expected_hash[j], std::move(text));
    };

    const Counters before = read_counters(d);
    const double client_cpu_before = thread_cpu_seconds();
    const auto timed_start = Clock::now();
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t i = begin + j;
        const auto sent = Clock::now();
        std::string reply;
        try {
            reply = d.client->request(stream.lines[i]);
        } catch (const std::exception& e) {
            lost[j] = 1;
            ++result.lost;
            fail(result, "request " + std::to_string(i) + ": " + e.what());
            d.client = std::make_unique<fpm::serve::ServeClient>(
                "127.0.0.1", d.primary.port);
            continue;
        }
        const double rtt = d.client->last_rtt_seconds();
        const bool partition = stream.item[i] >= 0;
        if (partition) {
            result.partition_rtt_s.push_back(rtt);
        } else if (reply.find(" republished=1") != std::string::npos) {
            const auto generation = Response::decode(reply).feedback.version;
            result.visible_s.push_back(
                seconds_between(sent, d.wait_visible(generation)));
            ++result.republished;
        }
        if (tracer != nullptr) {
            const auto id = static_cast<std::uint32_t>(i + 1);
            const std::int32_t root = tracer->add(
                partition ? "request.partition" : "request.feedback", sent,
                sent + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(rtt)),
                -1, id);
            expect(j, shadow->step(stream, i, id, root));
        }
        reply_hash[j] = hasher(reply);
        texts.try_emplace(reply_hash[j], std::move(reply));
    }
    result.timed_s += seconds_between(timed_start, Clock::now());
    result.client_cpu_s += thread_cpu_seconds() - client_cpu_before;
    const Counters after = read_counters(d);
    if (d.primary.child) {
        const double rss =
            d.primary.child->peak_rss_mb() +
            (d.replica.child ? d.replica.child->peak_rss_mb() : 0.0);
        result.server_peak_rss_mb =
            std::max(result.server_peak_rss_mb.value_or(0.0), rss);
    }

    result.server_cpu_s += after.server_cpu_s - before.server_cpu_s;
    const std::uint64_t hits = after.hits - before.hits;
    result.hits += hits;
    result.computed += after.computed - before.computed;
    result.degraded += after.degraded - before.degraded;
    result.store_appends += after.appends - before.appends;
    result.store_bytes += after.bytes - before.bytes;
    result.store_snapshots += after.snapshots - before.snapshots;
    if (after.reconnects) {
        result.reconnects = result.reconnects.value_or(0) +
                            (*after.reconnects - *before.reconnects);
        result.snapshot_transfers =
            result.snapshot_transfers.value_or(0) +
            (*after.transfers - *before.transfers);
    }
    for (const auto& [name, last] : after.histograms) {
        const auto& first = before.histograms.at(name);
        auto& total = result.histograms[name];
        total.first += last.count - first.count;
        total.second += last.sum - first.sum;
    }

    d.shutdown();

    // ---- checks, after timing --------------------------------------
    if (shadow == nullptr) {
        shadow = std::make_unique<Shadow>(workload, d.sets, "", nullptr);
        for (std::size_t j = 0; j < n; ++j) {
            expect(j, shadow->step(stream, begin + j, 0, -1));
        }
    }
    // A reply must equal the reference bit for bit, except that
    // `cached=` may read either way.
    struct Served {
        std::string normalized;  ///< with cached=0
        bool cached = false;
    };
    std::unordered_map<std::uint64_t, Served> served;
    for (const auto& [hash, text] : texts) {
        Served& entry = served[hash];
        entry.normalized = text;
        const auto at = text.find(" cached=");
        if (at != std::string::npos) {
            entry.cached = text[at + 8] == '1';
            entry.normalized[at + 8] = '0';
        }
    }
    std::uint64_t cached_replies = 0;
    for (std::size_t j = 0; j < n; ++j) {
        if (lost[j]) {
            ++result.failed;
            continue;
        }
        const Served& reply = served[reply_hash[j]];
        cached_replies += reply.cached ? 1 : 0;
        if (reply.normalized != expected_texts[expected_hash[j]]) {
            ++result.failed;
            fail(result, "request " + std::to_string(begin + j) + " '" +
                             stream.lines[begin + j] + "' answered '" +
                             texts[reply_hash[j]].substr(0, 160) + "'");
        }
    }
    if (cached_replies != hits) {
        fail(result, "replies marked cached (" +
                         std::to_string(cached_replies) +
                         ") disagree with STATS hits (" +
                         std::to_string(hits) + ")");
    }
    if (publish) {
        // The replica must hold exactly the primary's generations and
        // fingerprints, and the primary exactly the reference's.
        const auto primary = recovered(d.dir() + "/primary-store");
        const auto replica = recovered(d.dir() + "/replica-store");
        if (primary != replica || primary != published(shadow->registry())) {
            result.failed = std::min(result.failed + 1, result.attempted);
            fail(result, "replica or primary state differs from the "
                         "reference after the run");
        }
    }
    if (tracer != nullptr) {
        result.shadow = shadow->counts();
    }
}

} // namespace

PassResult run_pass(const RunOptions& options, std::size_t requests,
                    bool in_process, Tracer* tracer) {
    const Workload& workload = *options.workload;
    PassResult result;
    const Stream stream = make_stream(workload, options.seed, requests);
    result.fingerprint = stream.fingerprint;
    result.partitions = stream.partitions;
    result.feedbacks = stream.samples.size();
    result.attempted = stream.lines.size();

    // A gated run sets up several times, each set-up serving an equal
    // share of the timed requests: setup_s is the median set-up, and
    // the other metrics pool the segments, so no one placement of the
    // stack's threads on the vCPUs decides a run.
    const int segments = in_process ? 1 : workload.segments;
    for (int k = 0; k < segments; ++k) {
        const auto start = Clock::now();
        Deployment deployment(options, stream, in_process, tracer, k);
        result.setup_s.push_back(seconds_between(start, Clock::now()));
        run_segment(workload, stream, result.attempted * k / segments,
                    result.attempted * (k + 1) / segments, deployment, tracer,
                    result);
    }
    if (result.degraded != 0) {
        fail(result, std::to_string(result.degraded) + " degraded replies");
    }
    if (tracer != nullptr) {
        result.spans = tracer->totals();
    }
    return result;
}

} // namespace perfbench
