/// \file report.hpp
/// \brief Machine-readable result of one load-generation run.
///
/// The runner records every round trip into fpm::obs log-bucket
/// histograms (one overall, one per verb) and condenses them into this
/// Report: achieved request rate, latency quantiles up to p99.9, error /
/// degraded / drop counts and the per-verb breakdown.  to_json() renders
/// the BENCH_loadgen.json document (schema `fpmpart-loadgen-v1`,
/// documented field-by-field in docs/benchmarking.md); doubles print as
/// %.17g, so every number parses back to the same bits.
///
/// Drop accounting: `scheduled` counts every arrival of the open-loop
/// schedule, `sent` the ones actually dispatched, `dropped` the ones
/// refused because the bounded outstanding-request queue was full —
/// scheduled == sent + dropped, always.  Hiding drops would be
/// coordinated omission (the latency histogram would only describe the
/// requests a struggling server *let* the generator send); reporting
/// them keeps the tail honest.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "fpm/loadgen/workload.hpp"
#include "fpm/obs/metrics.hpp"

namespace fpm::loadgen {

/// Latency digest in microseconds, extracted from an obs::Histogram.
struct LatencyReport {
    std::uint64_t count = 0;
    double mean_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;

    /// Converts a snapshot recorded in seconds.
    [[nodiscard]] static LatencyReport from(const obs::HistogramSnapshot& s);
};

/// Per-verb slice of the run.
struct VerbReport {
    std::uint64_t sent = 0;       ///< requests put on the wire
    std::uint64_t completed = 0;  ///< replies received and decoded
    std::uint64_t errors = 0;     ///< ERR replies + transport failures
    std::uint64_t degraded = 0;   ///< PARTITION replies with degraded=1
    LatencyReport latency;
};

/// See file comment.
struct Report {
    std::string mode;     ///< "closed" | "open"
    std::string arrival;  ///< "poisson" | "uniform"; "" for closed loop
    std::uint64_t seed = 0;
    std::uint64_t connections = 0;
    std::uint64_t max_outstanding = 0;   ///< open loop; 0 for closed
    double think_time_seconds = 0.0;     ///< closed loop; 0 for open
    double duration_seconds = 0.0;       ///< measured wall clock of the run
    double target_rps = 0.0;             ///< open loop; 0 for closed
    double achieved_rps = 0.0;           ///< completed / duration_seconds

    std::uint64_t scheduled = 0;  ///< arrivals planned (== sent + dropped)
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    std::uint64_t degraded = 0;
    std::uint64_t dropped = 0;  ///< bounded-queue refusals (open loop)
    /// Client endpoint advances on typed transport errors — nonzero
    /// only when the run drove a failover endpoint list and at least
    /// one endpoint died or refused mid-run.
    std::uint64_t failovers = 0;

    /// stream_fingerprint() over the first `scheduled` (open) or `sent`
    /// (closed) requests: equal fingerprints == byte-identical streams.
    std::uint64_t stream_fingerprint = 0;

    LatencyReport latency;  ///< all verbs together
    std::array<VerbReport, kVerbCount> by_verb{};  ///< indexed by Verb

    /// The BENCH_loadgen.json document (schema fpmpart-loadgen-v1).
    [[nodiscard]] std::string to_json() const;
};

} // namespace fpm::loadgen
