#include "fpm/serve/partition_cache.hpp"

#include <bit>
#include <limits>

#include "fpm/common/error.hpp"
#include "fpm/common/hash.hpp"

namespace fpm::serve {

PartitionCache::PartitionCache(std::size_t capacity, std::size_t shards) {
    FPM_CHECK(capacity >= 1, "cache capacity must be positive");
    FPM_CHECK(shards >= 1, "cache shard count must be positive");
    const std::size_t rounded = std::bit_ceil(shards);
    shard_capacity_ = (capacity + rounded - 1) / rounded;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
    shards_.reserve(rounded);
    for (std::size_t i = 0; i < rounded; ++i) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

PartitionCache::Shard& PartitionCache::shard_for(const PlanKey& key) {
    // The fingerprint is already a content hash, but the mask keeps only
    // its low bits, so run them through a full avalanche mix first.
    return *shards_[mix64(key.fingerprint) & (shards_.size() - 1)];
}

const PartitionCache::Shard&
PartitionCache::shard_for(const PlanKey& key) const {
    // The fingerprint is already a content hash, but the mask keeps only
    // its low bits, so run them through a full avalanche mix first.
    return *shards_[mix64(key.fingerprint) & (shards_.size() - 1)];
}

std::shared_ptr<const PartitionPlan> PartitionCache::get(const PlanKey& key) {
    Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        ++shard.misses;
        return nullptr;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
    return it->second->plan;
}

std::shared_ptr<const PartitionPlan>
PartitionCache::probe(const PlanKey& key) {
    Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        return nullptr;  // not counted: the caller retries via get()
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->plan;
}

void PartitionCache::put(const PlanKey& key,
                         std::shared_ptr<const PartitionPlan> plan) {
    FPM_CHECK(plan != nullptr, "cannot cache a null plan");
    Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
        it->second->plan = std::move(plan);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    if (shard.lru.size() >= shard_capacity_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++shard.evictions;
    }
    shard.lru.push_front(Entry{key, std::move(plan)});
    shard.index[key] = shard.lru.begin();
}

std::size_t PartitionCache::erase_fingerprint(std::uint64_t fingerprint) {
    // Every key of one fingerprint maps to the same shard, and PlanKey
    // orders by fingerprint first, so the doomed entries form one
    // contiguous range of a single shard's index.
    Shard& shard = shard_for(
        PlanKey{fingerprint, 0, Algorithm::kFpm, false});
    std::lock_guard lock(shard.mutex);
    std::size_t removed = 0;
    auto it = shard.index.lower_bound(
        PlanKey{fingerprint, std::numeric_limits<std::int64_t>::min(),
                Algorithm::kFpm, false});
    while (it != shard.index.end() && it->first.fingerprint == fingerprint) {
        shard.lru.erase(it->second);
        it = shard.index.erase(it);
        ++removed;
    }
    return removed;
}

CacheStats PartitionCache::stats() const {
    CacheStats total;
    for (const auto& shard : shards_) {
        std::lock_guard lock(shard->mutex);
        total.hits += shard->hits;
        total.misses += shard->misses;
        total.evictions += shard->evictions;
        total.size += shard->lru.size();
    }
    return total;
}

std::vector<CacheStats> PartitionCache::shard_stats() const {
    std::vector<CacheStats> out;
    out.reserve(shards_.size());
    for (const auto& shard : shards_) {
        std::lock_guard lock(shard->mutex);
        out.push_back(CacheStats{shard->hits, shard->misses, shard->evictions,
                                 shard->lru.size()});
    }
    return out;
}

void PartitionCache::clear() {
    for (auto& shard : shards_) {
        std::lock_guard lock(shard->mutex);
        shard->lru.clear();
        shard->index.clear();
    }
}

} // namespace fpm::serve
