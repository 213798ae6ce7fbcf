/// \file partition_cache.hpp
/// \brief Lock-striped sharded LRU memoization of partitioning results.
///
/// A partition query is fully determined by (model content, workload
/// size, algorithm, layout on/off), so the service memoizes the computed
/// plan.  The key uses the model set's content *fingerprint*, not its
/// name: hot-reloading a set with identical content keeps its entries
/// valid, while changed content simply stops matching (stale entries
/// age out of the LRU tail).
///
/// The cache is striped into a power-of-two number of independently
/// locked shards so that N reactor threads probing concurrently do not
/// serialize on one mutex.  The shard is chosen by a mixed hash of the
/// key's fingerprint — every entry of one model set lands in exactly one
/// shard, which keeps erase_fingerprint() a single-shard operation.
/// Recency and capacity are per shard (capacity is split evenly), so a
/// single-shard cache (the default) is an exact LRU with the same
/// counter semantics as prior releases.  Counters expose hit/miss/
/// eviction totals for the STATS wire command and the tests; per-shard
/// snapshots are exposed so tests can assert the shards sum to the
/// global counters.
#pragma once

#include <compare>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpm/part/request.hpp"

namespace fpm::serve {

/// The service speaks the library's algorithm vocabulary directly; the
/// one string mapping lives in fpm::part (to_string/parse_algorithm).
using Algorithm = part::Algorithm;

/// Cache key; see file comment.
struct PlanKey {
    std::uint64_t fingerprint = 0;
    std::int64_t n = 0;  ///< matrix size in blocks (workload = n*n)
    Algorithm algorithm = Algorithm::kFpm;
    bool with_layout = true;

    auto operator<=>(const PlanKey&) const = default;
};

/// A served partitioning answer: the library's PartitionPlan plus the
/// cache identity, the model-set generation that produced it, and its
/// encoded reply fields, so a cache hit formats nothing.
struct PartitionPlan : part::PartitionPlan {
    PlanKey key;
    std::uint64_t generation = 0;  ///< model-set generation that produced it
    /// The `OK PARTITION` tail this plan alone decides (` balanced=…`
    /// through `layout=…`; see append_partition_fields() in protocol.hpp),
    /// stored by RequestEngine::compute_plan().  Empty in a hand-built
    /// plan, which must not be served.
    std::string reply_fields;
};

/// Counter snapshot (one shard's or the whole cache's).
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
};

/// Thread-safe sharded LRU cache of shared immutable plans.
class PartitionCache {
public:
    /// `capacity` >= 1 total entries, split evenly across `shards`
    /// stripes (each shard holds at least one entry).  `shards` is
    /// rounded up to the next power of two; 1 (the default) is an exact
    /// single-LRU cache.
    explicit PartitionCache(std::size_t capacity, std::size_t shards = 1);

    /// Returns the cached plan and refreshes its recency, or nullptr.
    [[nodiscard]] std::shared_ptr<const PartitionPlan> get(const PlanKey& key);

    /// get(), except a miss is not counted in stats() — for speculative
    /// probes (the reactor's cache-hit fast path) whose misses fall back
    /// to the counting path, so each request still records exactly one
    /// lookup.  A hit counts (and refreshes recency) as usual.
    [[nodiscard]] std::shared_ptr<const PartitionPlan>
    probe(const PlanKey& key);

    /// Inserts (or refreshes) `plan`, evicting the least recently used
    /// entry of the key's shard when that shard is full.
    void put(const PlanKey& key, std::shared_ptr<const PartitionPlan> plan);

    /// Drops every entry whose key carries `fingerprint`, regardless of
    /// (n, algorithm, layout); returns the number removed.  Model
    /// republication calls this so a refined model can never serve a plan
    /// fingerprinted against the old speed function — LRU aging alone
    /// would let such entries linger.  All entries of one fingerprint
    /// share a shard, so this locks exactly one stripe.
    std::size_t erase_fingerprint(std::uint64_t fingerprint);

    /// Sums the per-shard counters.
    [[nodiscard]] CacheStats stats() const;

    /// Per-shard counter snapshots, indexed by shard; sums to stats().
    [[nodiscard]] std::vector<CacheStats> shard_stats() const;

    /// Number of stripes (a power of two).
    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

    void clear();

private:
    struct Entry {
        PlanKey key;
        std::shared_ptr<const PartitionPlan> plan;
    };

    struct Shard {
        mutable std::mutex mutex;
        std::list<Entry> lru;  // front = most recently used
        std::map<PlanKey, std::list<Entry>::iterator> index;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    Shard& shard_for(const PlanKey& key);
    const Shard& shard_for(const PlanKey& key) const;

    std::size_t shard_capacity_ = 0;  ///< per-shard entry budget
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace fpm::serve
