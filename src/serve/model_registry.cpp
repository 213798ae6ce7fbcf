#include "fpm/serve/model_registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "fpm/common/error.hpp"
#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/error.hpp"

namespace fpm::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void hash_bytes(std::uint64_t& h, const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
}

void hash_double(std::uint64_t& h, double value) {
    // Canonicalise so +0.0/-0.0 and NaN payloads cannot split the hash;
    // infinities (unbounded max_problem) keep their distinct bit pattern.
    if (value == 0.0) {
        value = 0.0;
    }
    const auto bits = std::bit_cast<std::uint64_t>(value);
    hash_bytes(h, &bits, sizeof bits);
}

/// The one set-name rule of put() and restore(): MODELS separates its
/// entries with ',' and an entry's fields with ':', and the line
/// protocol splits on whitespace and '=', so a name holding any of them
/// would make every later MODELS reply undecodable.
void check_set_name(const std::string& name) {
    if (name.empty() || name.find_first_of(" \t\r\n,=:") != std::string::npos) {
        throw ServiceError(ErrorCode::kBadRequest,
                           "model set name must be non-empty without "
                           "whitespace, ',', '=' or ':': '" + name + "'");
    }
}

} // namespace

std::uint64_t fingerprint_models(const std::vector<core::SpeedFunction>& models) {
    std::uint64_t h = kFnvOffset;
    const std::uint64_t count = models.size();
    hash_bytes(h, &count, sizeof count);
    for (const auto& model : models) {
        hash_bytes(h, model.name().data(), model.name().size());
        hash_double(h, model.max_problem());
        const std::uint64_t points = model.points().size();
        hash_bytes(h, &points, sizeof points);
        for (const auto& point : model.points()) {
            hash_double(h, point.x);
            hash_double(h, point.speed);
        }
    }
    return h;
}

std::shared_ptr<const ModelSet>
ModelRegistry::put(const std::string& name,
                   std::vector<core::SpeedFunction> models) {
    check_set_name(name);
    FPM_CHECK(!models.empty(), "model set must hold at least one model");

    static auto& reload_fault = fault::point("serve.reload");
    if (reload_fault.fire()) {
        // Simulated reload failure (corrupt CSV, disk error): the
        // previous snapshot stays installed, exactly as with a real
        // load_speed_functions_csv throw.
        throw Error("injected fault: model registry reload");
    }

    auto set = std::make_shared<ModelSet>();
    set->name = name;
    set->fingerprint = fingerprint_models(models);
    set->models = std::move(models);

    std::lock_guard lock(mutex_);
    set->generation = next_generation_;
    if (observer_) {
        // Write-ahead: the durable store logs the candidate before the
        // registry commits.  A throw here vetoes the put — generation
        // counter and map are untouched, so registry and log can never
        // disagree about what was published.
        observer_(*set);
    }
    ++next_generation_;
    std::shared_ptr<const ModelSet> installed = std::move(set);
    sets_[name] = installed;
    return installed;
}

void ModelRegistry::set_put_observer(PutObserver observer) {
    std::lock_guard lock(mutex_);
    observer_ = std::move(observer);
}

std::shared_ptr<const ModelSet>
ModelRegistry::restore(const std::string& name,
                       std::vector<core::SpeedFunction> models,
                       std::uint64_t generation) {
    check_set_name(name);
    FPM_CHECK(!models.empty(), "model set must hold at least one model");
    FPM_CHECK(generation > 0, "restored generation must be positive");

    auto set = std::make_shared<ModelSet>();
    set->name = name;
    set->fingerprint = fingerprint_models(models);
    set->models = std::move(models);
    set->generation = generation;

    std::lock_guard lock(mutex_);
    next_generation_ = std::max(next_generation_, generation + 1);
    std::shared_ptr<const ModelSet> installed = std::move(set);
    sets_[name] = installed;
    return installed;
}

std::uint64_t ModelRegistry::next_generation() const {
    std::lock_guard lock(mutex_);
    return next_generation_;
}

std::shared_ptr<const ModelSet> ModelRegistry::load_csv(const std::string& name,
                                                        const std::string& path) {
    return put(name, core::load_speed_functions_csv(path));
}

std::shared_ptr<const ModelSet>
ModelRegistry::get(const std::string& name) const {
    auto set = find(name);
    if (set == nullptr) {
        // A client asking for a set that is not loaded is a caller
        // mistake, not a server fault — type it so the wire carries
        // `ERR bad_request ...` instead of `ERR internal ...`.
        throw ServiceError(ErrorCode::kBadRequest,
                           "unknown model set: " + name);
    }
    return set;
}

std::shared_ptr<const ModelSet>
ModelRegistry::find(const std::string& name) const {
    std::lock_guard lock(mutex_);
    const auto it = sets_.find(name);
    return it == sets_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const ModelSet>> ModelRegistry::snapshot() const {
    std::lock_guard lock(mutex_);
    std::vector<std::shared_ptr<const ModelSet>> sets;
    sets.reserve(sets_.size());
    for (const auto& [name, set] : sets_) {
        sets.push_back(set);
    }
    return sets;
}

std::size_t ModelRegistry::size() const {
    std::lock_guard lock(mutex_);
    return sets_.size();
}

} // namespace fpm::serve
