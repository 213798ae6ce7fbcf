#include "fpm/part/partition.hpp"

#include <algorithm>
#include <numeric>

#include "fpm/common/error.hpp"

namespace fpm::part {

double Partition1D::total() const {
    return std::accumulate(share.begin(), share.end(), 0.0);
}

Partition1D partition_homogeneous(std::size_t devices, double total) {
    FPM_CHECK(devices >= 1, "need at least one device");
    FPM_CHECK(total >= 0.0, "total workload must be non-negative");
    Partition1D p;
    p.share.assign(devices, total / static_cast<double>(devices));
    return p;
}

Partition1D partition_cpm(std::span<const double> speeds, double total) {
    FPM_CHECK(!speeds.empty(), "need at least one device");
    FPM_CHECK(total >= 0.0, "total workload must be non-negative");
    double sum = 0.0;
    for (const double s : speeds) {
        FPM_CHECK(s >= 0.0, "constant speeds must be non-negative");
        sum += s;
    }
    FPM_CHECK(sum > 0.0, "at least one device must have positive speed");

    Partition1D p;
    p.share.reserve(speeds.size());
    for (const double s : speeds) {
        p.share.push_back(total * s / sum);
    }
    return p;
}

namespace {

template <typename Share>
double makespan_impl(std::span<const core::SpeedFunction> models,
                     std::span<const Share> shares) {
    FPM_CHECK(models.size() == shares.size(),
              "models and shares must have equal length");
    double worst = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
        const double x = static_cast<double>(shares[i]);
        FPM_CHECK(x >= 0.0, "shares must be non-negative");
        if (x > 0.0) {
            worst = std::max(worst, core::MonotoneTime(models[i]).time(x));
        }
    }
    return worst;
}

} // namespace

double makespan(std::span<const core::SpeedFunction> models,
                std::span<const double> shares) {
    return makespan_impl(models, shares);
}

double makespan(std::span<const core::SpeedFunction> models,
                std::span<const std::int64_t> shares) {
    return makespan_impl(models, shares);
}

} // namespace fpm::part
