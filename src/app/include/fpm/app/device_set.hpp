/// \file device_set.hpp
/// \brief Device configurations of the hybrid node, as the application
///        and the partitioners see them.
///
/// The paper's experiments use three configurations of the node:
///  - CPU-only: four six-core sockets (24 cores);
///  - single GPU + its dedicated core;
///  - hybrid: every GPU plus every socket, where a socket hosting a GPU
///    contributes cores-1 compute cores (one is dedicated to the GPU).
///
/// A Device is the unit the 1-D partitioner balances; it maps 1:1 to a
/// speed function and to a rectangle of the 2-D layout.
#pragma once

#include <string>
#include <vector>

#include "fpm/core/fpm_builder.hpp"
#include "fpm/core/kernel_bench.hpp"
#include "fpm/core/models.hpp"
#include "fpm/sim/node.hpp"

namespace fpm::app {

/// What a device is made of.
enum class DeviceKind { kCpuSocket, kGpu };

/// One schedulable device of the hybrid platform.
struct Device {
    DeviceKind kind = DeviceKind::kCpuSocket;
    std::string name;
    std::size_t socket = 0;       ///< NUMA socket the device lives on
    unsigned cores = 0;           ///< active compute cores (CPU devices)
    std::size_t gpu_index = 0;    ///< which GPU (GPU devices)
    sim::KernelVersion gpu_version = sim::KernelVersion::kV3;

    /// Number of application processes this device hosts (one per core
    /// for sockets; the single dedicated host process for GPUs).
    [[nodiscard]] std::size_t process_count() const {
        return kind == DeviceKind::kCpuSocket ? cores : 1;
    }
};

/// Device set plus how many cores of each socket are co-active (needed
/// for the contention-aware kernel timings).
struct DeviceSet {
    std::vector<Device> devices;

    [[nodiscard]] std::size_t process_count() const;

    /// Cores of socket `s` busy with CPU work in this configuration.
    [[nodiscard]] unsigned cpu_cores_on_socket(std::size_t s) const;

    /// True when a GPU device of this set lives on socket `s`.
    [[nodiscard]] bool gpu_on_socket(std::size_t s) const;
};

/// CPU-only configuration: all sockets, all cores.
DeviceSet cpu_only_devices(const sim::HybridNode& node);

/// One GPU with its dedicated core, nothing else.
DeviceSet single_gpu_devices(const sim::HybridNode& node, std::size_t gpu,
                             sim::KernelVersion version = sim::KernelVersion::kV3);

/// Full hybrid configuration (the paper's 22 cores + 2 GPUs).
DeviceSet hybrid_devices(const sim::HybridNode& node,
                         sim::KernelVersion version = sim::KernelVersion::kV3);

/// Creates the kernel benchmark for one device of the set, reflecting the
/// co-activity of the other devices in the set (contention-aware group
/// measurement, paper section III).
std::unique_ptr<core::KernelBenchmark> make_device_bench(sim::HybridNode& node,
                                                         const DeviceSet& set,
                                                         std::size_t device);

/// Builds the FPM of every device of the set.
std::vector<core::SpeedFunction> build_device_fpms(sim::HybridNode& node,
                                                   const DeviceSet& set,
                                                   const core::FpmBuildOptions& options);

/// Builds the even-share CPM of every device of the set, the
/// traditional-model baseline of Tables II/III, as an unbounded constant
/// speed function (blocks/s) for part::partition's kCpm.
std::vector<core::SpeedFunction> build_device_cpms(sim::HybridNode& node,
                                                   const DeviceSet& set,
                                                   double total_area);

} // namespace fpm::app
