/// \file adapt_config.hpp
/// \brief The one typed knob set of the online adaptation layer.
///
/// Mirrors serve_config.hpp's role for fpm::adapt: AdaptEngine, the
/// fpmpart_serve `--adapt-*` flags and the tests all consume the same
/// struct, and every knob must be documented in docs/adaptation.md
/// (enforced by test_docs).  The reliability knobs deliberately mirror
/// measure::ReliabilityOptions — the online path accepts a feedback
/// bucket under the same statistical criterion the offline benchmarking
/// sweeps use.
#pragma once

#include <cstddef>

namespace fpm::adapt {

/// See file comment.  Ratios are dimensionless fractions.
struct AdaptConfig {
    // -- bucket reliability (measure::ReliabilityOptions criteria) ----
    /// Samples a (device, size-region) bucket needs before its mean can
    /// be accepted (>= 1; 1 accepts the first sample).
    std::size_t min_samples = 3;
    /// Hard cap per bucket: at this count the bucket is accepted even if
    /// the precision target was not met (a noisy device still beats a
    /// frozen model).
    std::size_t max_samples = 25;
    /// Accept once the 95 % CI half-width of the bucket's mean speed is
    /// within this fraction of the mean.
    double target_relative_error = 0.05;

    // -- refiner ------------------------------------------------------
    /// Refinements smaller than this fraction are skipped entirely —
    /// no splice, no republish pressure (anti-churn deadband).
    double min_speed_change = 0.02;

    // -- drift detection ----------------------------------------------
    /// A reliable window whose observed speed differs from the model by
    /// more than this fraction counts as drift.
    double drift_threshold = 0.1;
    /// CUSUM limit: consecutive-window excess error (relative error
    /// minus drift_threshold, clamped at zero) accumulates per device;
    /// crossing this total triggers a republish.
    double cusum_limit = 0.25;
};

} // namespace fpm::adapt
