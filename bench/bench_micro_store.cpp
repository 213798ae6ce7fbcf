// google-benchmark micro-benchmarks of the durable store's codec: one
// publish record's encode and decode (model text plus header, the
// decode including SpeedFunction construction and the fingerprint
// check) and the CRC-32 every WAL frame, snapshot frame and REPL frame
// is checked with.  All three run on the record `publish_replicate`
// publishes: the paper's hybrid node modelled without noise (6 devices,
// 112 points).  Each of its publishes encodes twice (the primary's
// append and the replica's), decodes once (the replica) and runs crc32
// four times (WAL append, REPL send, the replica's frame check and its
// append).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fpm/app/device_set.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/store/model_store.hpp"
#include "fpm/store/wal.hpp"

namespace {

/// perfbench's noise-free hybrid set, built as tools/fpmpart_model does.
const fpm::serve::ModelSet& hybrid_set() {
    static const fpm::serve::ModelSet set = [] {
        fpm::sim::HybridNode node(fpm::sim::ig_platform(), {});
        fpm::core::FpmBuildOptions options;
        options.x_min = 4.0;
        options.x_max = 5200.0;
        options.initial_points = 14;
        options.max_points = 44;
        options.reliability.min_repetitions = 1;
        options.reliability.max_repetitions = 1;
        fpm::serve::ModelSet s;
        s.name = "hybrid";
        s.models = fpm::app::build_device_fpms(
            node, fpm::app::hybrid_devices(node), options);
        s.generation = 42;
        s.fingerprint = fpm::serve::fingerprint_models(s.models);
        return s;
    }();
    return set;
}

void record_counters(benchmark::State& state, std::size_t bytes) {
    std::size_t points = 0;
    for (const auto& model : hybrid_set().models) {
        points += model.points().size();
    }
    state.counters["devices"] =
        static_cast<double>(hybrid_set().models.size());
    state.counters["points"] = static_cast<double>(points);
    state.counters["record_bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bytes));
}

void BM_EncodePublishRecord(benchmark::State& state) {
    const auto& set = hybrid_set();
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::string record = fpm::store::encode_publish_record(set);
        bytes = record.size();
        benchmark::DoNotOptimize(record.data());
    }
    record_counters(state, bytes);
}
BENCHMARK(BM_EncodePublishRecord);

void BM_DecodePublishRecord(benchmark::State& state) {
    const std::string record =
        fpm::store::encode_publish_record(hybrid_set());
    for (auto _ : state) {
        const auto decoded =
            fpm::store::decode_publish_record(record, "bench");
        benchmark::DoNotOptimize(decoded.models.data());
    }
    record_counters(state, record.size());
}
BENCHMARK(BM_DecodePublishRecord);

void BM_Crc32(benchmark::State& state) {
    const std::string record =
        fpm::store::encode_publish_record(hybrid_set());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fpm::store::crc32(record.data(), record.size()));
    }
    record_counters(state, record.size());
}
BENCHMARK(BM_Crc32);

} // namespace

BENCHMARK_MAIN();
