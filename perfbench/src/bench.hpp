/// \file bench.hpp
/// \brief Declarations shared by the perfbench program's translation units.
///
/// perfbench measures the partition service end to end: it builds the
/// model sets a workload needs, starts the serving stack, replays a
/// seeded request stream over one closed-loop connection, and checks
/// every reply against the direct library call.  See perfbench/README.md
/// for the workloads, the metrics and why they are measured this way.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "fpm/adapt/engine.hpp"
#include "fpm/core/speed_function.hpp"
#include "fpm/repl/replication_server.hpp"
#include "fpm/repl/replicator.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/server.hpp"
#include "fpm/store/model_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------- spans

/// One recorded span: a layer call made by the benchmark.  `parent` is
/// the index of the enclosing span (-1 for a root); every span of one
/// request carries that request's id.
struct SpanRecord {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t request = 0;
};

/// In-memory span store; written out once, when the run ends.
class Tracer {
public:
    /// Opens a span now; returns its id.
    std::int32_t open(const char* name, std::int32_t parent,
                      std::uint32_t request);
    void close(std::int32_t id);
    /// Records a span whose interval is already known.
    std::int32_t add(const char* name, Clock::time_point start,
                     Clock::time_point end, std::int32_t parent,
                     std::uint32_t request);

    /// Per-name totals; self time is a span's duration minus its
    /// children's durations.
    struct Totals {
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double self_ns = 0.0;
    };
    [[nodiscard]] std::map<std::string, Totals> totals() const;

    /// Chrome trace_event JSON (one complete event per span).
    void write_chrome_trace(const std::string& path) const;

    [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
        return spans_;
    }

    /// RAII span; a null tracer makes it a no-op.
    class Scope {
    public:
        Scope(Tracer* tracer, const char* name, std::int32_t parent,
              std::uint32_t request)
            : tracer_(tracer),
              id_(tracer ? tracer->open(name, parent, request) : -1) {}
        ~Scope() {
            if (tracer_ != nullptr) {
                tracer_->close(id_);
            }
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        [[nodiscard]] std::int32_t id() const noexcept { return id_; }

    private:
        Tracer* tracer_;
        std::int32_t id_;
    };

private:
    std::vector<SpanRecord> spans_;
};

// ------------------------------------------------------------- workloads

enum class WorkloadKind { kHotHits, kColdCompute, kPublishReplicate };

struct Workload {
    WorkloadKind kind;
    const char* name;
    /// Timed requests per requested second of run time.  A constant, so
    /// a given --seconds always means the same request count.
    double requests_per_second;
    /// Set-ups per gated run, each serving an equal share of the timed
    /// requests; setup_s is their median.
    int segments;
};

/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

struct ModelSetSpec {
    std::string name;
    std::vector<fpm::core::SpeedFunction> models;
};

/// Builds the workload's model sets from fpm::sim (deterministic in
/// `seed`); records a `core.model_build` span per set when traced.
[[nodiscard]] std::vector<ModelSetSpec>
build_model_sets(const Workload& workload, std::uint64_t seed,
                 Tracer* tracer);

/// The request stream of one run, generated before timing.
struct Stream {
    std::vector<std::string> lines;  ///< timed request lines
    /// Per timed request: >= 0 indexes `keys` (a PARTITION); -1 - j
    /// is FEEDBACK sample `samples[j]`.
    std::vector<std::int32_t> item;
    std::vector<fpm::serve::PartitionRequest> keys;  ///< distinct keys
    std::vector<fpm::serve::FeedbackSample> samples;
    std::vector<std::string> warmup;  ///< set-up lines that fill the cache
    std::uint64_t fingerprint = 0;    ///< FNV-1a over the timed lines
    std::size_t partitions = 0;       ///< PARTITION lines among `lines`
};

[[nodiscard]] Stream make_stream(const Workload& workload,
                                 std::uint64_t seed, std::size_t requests);

// ----------------------------------------------------------------- stack

/// One serving process's objects, wired the way tools/fpmpart_serve.cpp
/// wires them, with the default ServeConfig / RequestEngine::Options /
/// AdaptConfig (1 reactor, 4 workers, a 1024-plan cache in 1 shard).
struct StackOptions {
    bool adapt = false;
    std::string store_dir;         ///< empty: no durable store
    bool repl_listen = false;      ///< ship the WAL to replicas
    std::uint16_t replica_of = 0;  ///< nonzero: follow this primary port
};

/// The durable-store policy every stack here uses: publishes are not
/// flushed (the disk is shared, so flush time would measure other
/// tenants), snapshots still are, every `snapshot_every` publishes.
[[nodiscard]] fpm::store::StoreOptions store_options();

class Stack {
public:
    explicit Stack(const StackOptions& options);
    ~Stack();
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    /// fpmpart_serve's shutdown order; idempotent.
    void stop();

    [[nodiscard]] std::uint16_t port() const { return server_->port(); }
    [[nodiscard]] std::uint16_t repl_port() const {
        return repl_server_ ? repl_server_->port() : 0;
    }
    [[nodiscard]] fpm::store::ModelStore* store() { return store_.get(); }
    [[nodiscard]] fpm::repl::Replicator* replicator() {
        return replicator_.get();
    }

private:
    fpm::serve::ModelRegistry registry_;
    std::unique_ptr<fpm::store::ModelStore> store_;
    std::unique_ptr<fpm::serve::RequestEngine> engine_;
    std::unique_ptr<fpm::adapt::AdaptEngine> adapter_;
    std::unique_ptr<fpm::repl::ReplicationLog> log_;
    std::unique_ptr<fpm::repl::ReplicationServer> repl_server_;
    std::unique_ptr<fpm::repl::Replicator> replicator_;
    std::unique_ptr<fpm::serve::SocketServer> server_;
    bool stopped_ = false;
};

/// `perfbench serve [--adapt] [--store DIR] [--repl-listen]
/// [--replica-of PORT]`: hosts one Stack, prints `ready <port>
/// <repl_port>`, serves until stdin reaches EOF.
int serve_main(int argc, char** argv);

/// A `perfbench serve` child process.  Closing its stdin stops it.
class ChildProcess {
public:
    explicit ChildProcess(const std::vector<std::string>& args);
    ~ChildProcess();
    ChildProcess(const ChildProcess&) = delete;
    ChildProcess& operator=(const ChildProcess&) = delete;

    /// Closes stdin and waits for the exit (SIGKILL after a deadline).
    /// Throws when the child did not exit cleanly.
    void stop();

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] std::uint16_t repl_port() const noexcept {
        return repl_port_;
    }
    /// user + system CPU seconds so far, all threads.
    [[nodiscard]] double cpu_seconds() const;
    /// Peak resident set (VmHWM), MB.
    [[nodiscard]] double peak_rss_mb() const;

private:
    pid_t pid_ = -1;
    int stdin_fd_ = -1;
    std::uint16_t port_ = 0;
    std::uint16_t repl_port_ = 0;
};

/// Wakes when files in a directory change (inotify).
class DirWatch {
public:
    explicit DirWatch(const std::string& dir);
    ~DirWatch();
    DirWatch(const DirWatch&) = delete;
    DirWatch& operator=(const DirWatch&) = delete;
    /// Waits up to `timeout_ms` for events and drains them; true when
    /// any arrived.
    bool wait(int timeout_ms);

private:
    int fd_ = -1;
};

// ---------------------------------------------------------------- shadow

/// The reference the served replies are checked against: the same
/// model sets in a local registry (plus, for publish_replicate, an
/// AdaptEngine fed the same FEEDBACK samples in the same order, so its
/// generations follow the primary's).  In a traced pass it also replays
/// each request through the layer calls, recording their spans.
class Shadow {
public:
    /// `store_dir` non-empty attaches a durable store (traced
    /// publish_replicate: the store.append / store.snapshot spans).
    Shadow(const Workload& workload, const std::vector<ModelSetSpec>& sets,
           const std::string& store_dir, Tracer* tracer);
    ~Shadow();

    /// Mirrors the served plan cache for one set-up request (traced).
    void warm(const fpm::serve::PartitionRequest& key);

    /// Replays timed request `i` (spans under `root` when traced) and
    /// returns the reply the service must have sent, with `cached=0`.
    std::string step(const Stream& stream, std::size_t i,
                     std::uint32_t request, std::int32_t root);

    [[nodiscard]] const fpm::serve::ModelRegistry& registry() const {
        return registry_;
    }

    /// Traced-pass accounting that spans alone do not give.
    struct Counts {
        std::uint64_t bisection_calls = 0;
        std::uint64_t bisection_iterations = 0;
        std::uint64_t queue_wait_count = 0;  ///< own rt.pool samples
        double queue_wait_sum = 0.0;
    };
    [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

private:
    std::string partition_step(const fpm::serve::PartitionRequest& key,
                               std::uint32_t request, std::int32_t root);

    Tracer* tracer_;
    fpm::serve::ModelRegistry registry_;
    std::unique_ptr<fpm::store::ModelStore> store_;
    std::unique_ptr<fpm::serve::RequestEngine> engine_;
    std::unique_ptr<fpm::adapt::AdaptEngine> adapter_;
    struct Expected {
        fpm::serve::Response response;  ///< cached=0
        std::string line;
    };
    /// (set, generation, n) -> expected reply
    std::map<std::tuple<std::string, std::uint64_t, std::int64_t>, Expected>
        memo_;
    std::uint64_t appends_ = 0;
    std::int32_t observer_parent_ = -1;
    std::uint32_t observer_request_ = 0;
    Counts counts_;
};

// ------------------------------------------------------------ deployment

struct RunOptions {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    std::string work_dir;
    std::string commit = "unknown";
    std::string source = "unknown";
    std::string trace_file;  ///< where the traced pass writes its spans
    std::string self_exe;
    int cpu = 0;  ///< the one vCPU the whole run is confined to
};

/// Everything one pass measured.
struct PassResult {
    bool correct = true;
    std::vector<std::string> failures;  ///< first few check failures
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t lost = 0;  ///< transport failures (no reply)
    std::vector<double> setup_s;
    double timed_s = 0.0;
    std::vector<double> partition_rtt_s;
    std::vector<double> visible_s;  ///< publish -> replica, per publish
    double server_cpu_s = 0.0;
    std::optional<double> server_peak_rss_mb;  ///< child processes only
    double client_cpu_s = 0.0;
    std::uint64_t fingerprint = 0;
    std::size_t partitions = 0;
    std::size_t feedbacks = 0;

    // Served-stack counts over the timed phase.
    std::uint64_t hits = 0;
    std::uint64_t computed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t republished = 0;
    std::uint64_t store_appends = 0;
    std::uint64_t store_bytes = 0;
    std::uint64_t store_snapshots = 0;
    std::optional<std::uint64_t> reconnects;          ///< in-process only
    std::optional<std::uint64_t> snapshot_transfers;  ///< in-process only

    /// In-process only: (count, sum seconds) deltas of the serving
    /// stack's own obs histograms over the timed phase.
    std::map<std::string, std::pair<std::uint64_t, double>> histograms;

    Shadow::Counts shadow;               ///< traced replay counts
    std::map<std::string, Tracer::Totals> spans;
};

/// Runs one pass: set-ups, each followed by its share of the timed
/// loop and the checks of its replies.  With
/// `in_process` the stack runs on threads of this process (its obs
/// registry is readable); otherwise in child processes, measured apart
/// from the generator.  A non-null tracer records the replay spans.
PassResult run_pass(const RunOptions& options, std::size_t requests,
                    bool in_process, Tracer* tracer);

} // namespace perfbench
