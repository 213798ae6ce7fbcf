#include "fpm/app/device_set.hpp"

#include <sstream>

namespace fpm::app {

std::size_t DeviceSet::process_count() const {
    std::size_t n = 0;
    for (const auto& device : devices) {
        n += device.process_count();
    }
    return n;
}

unsigned DeviceSet::cpu_cores_on_socket(std::size_t s) const {
    unsigned cores = 0;
    for (const auto& device : devices) {
        if (device.kind == DeviceKind::kCpuSocket && device.socket == s) {
            cores += device.cores;
        }
    }
    return cores;
}

bool DeviceSet::gpu_on_socket(std::size_t s) const {
    for (const auto& device : devices) {
        if (device.kind == DeviceKind::kGpu && device.socket == s) {
            return true;
        }
    }
    return false;
}

DeviceSet cpu_only_devices(const sim::HybridNode& node) {
    DeviceSet set;
    for (std::size_t s = 0; s < node.socket_count(); ++s) {
        Device device;
        device.kind = DeviceKind::kCpuSocket;
        device.socket = s;
        device.cores = node.spec().sockets[s].cores;
        std::ostringstream name;
        name << "S" << device.cores << "(socket" << s << ")";
        device.name = name.str();
        set.devices.push_back(device);
    }
    return set;
}

DeviceSet single_gpu_devices(const sim::HybridNode& node, std::size_t gpu,
                             sim::KernelVersion version) {
    FPM_CHECK(gpu < node.gpu_count(), "GPU index out of range");
    DeviceSet set;
    Device device;
    device.kind = DeviceKind::kGpu;
    device.gpu_index = gpu;
    device.socket = node.gpu_socket(gpu);
    device.cores = 1;  // the dedicated host core
    device.gpu_version = version;
    device.name = node.gpu_model(gpu).spec().name;
    set.devices.push_back(device);
    return set;
}

DeviceSet hybrid_devices(const sim::HybridNode& node, sim::KernelVersion version) {
    DeviceSet set;

    // GPU devices first: ordering is stable and benches reference them as
    // G1 (fastest-listed GPU) and G2 in the paper's table layout.  We list
    // them in node order.
    std::vector<unsigned> dedicated(node.socket_count(), 0);
    for (std::size_t g = 0; g < node.gpu_count(); ++g) {
        Device device;
        device.kind = DeviceKind::kGpu;
        device.gpu_index = g;
        device.socket = node.gpu_socket(g);
        device.cores = 1;
        device.gpu_version = version;
        device.name = node.gpu_model(g).spec().name;
        set.devices.push_back(device);
        dedicated[device.socket] += 1;
    }

    for (std::size_t s = 0; s < node.socket_count(); ++s) {
        const unsigned total = node.spec().sockets[s].cores;
        FPM_CHECK(dedicated[s] <= total,
                  "socket has fewer cores than attached GPUs");
        const unsigned cores = total - dedicated[s];
        if (cores == 0) {
            continue;
        }
        Device device;
        device.kind = DeviceKind::kCpuSocket;
        device.socket = s;
        device.cores = cores;
        std::ostringstream name;
        name << "S" << cores << "(socket" << s << ")";
        device.name = name.str();
        set.devices.push_back(device);
    }
    return set;
}

std::unique_ptr<core::KernelBenchmark> make_device_bench(sim::HybridNode& node,
                                                         const DeviceSet& set,
                                                         std::size_t device) {
    FPM_CHECK(device < set.devices.size(), "device index out of range");
    const Device& d = set.devices[device];
    if (d.kind == DeviceKind::kCpuSocket) {
        const bool gpu_coactive = set.gpu_on_socket(d.socket);
        return std::make_unique<core::SimCpuKernelBench>(node, d.socket, d.cores,
                                                         gpu_coactive);
    }
    const unsigned coactive = set.cpu_cores_on_socket(d.socket);
    return std::make_unique<core::SimGpuKernelBench>(node, d.gpu_index,
                                                     d.gpu_version, coactive);
}

std::vector<core::SpeedFunction> build_device_fpms(
    sim::HybridNode& node, const DeviceSet& set,
    const core::FpmBuildOptions& options) {
    std::vector<core::SpeedFunction> models;
    models.reserve(set.devices.size());
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        auto bench = make_device_bench(node, set, i);
        models.push_back(core::build_fpm(*bench, options));
    }
    return models;
}

std::vector<core::SpeedFunction> build_device_cpms(sim::HybridNode& node,
                                                   const DeviceSet& set,
                                                   double total_area) {
    std::vector<std::unique_ptr<core::KernelBenchmark>> benches;
    std::vector<core::KernelBenchmark*> pointers;
    for (std::size_t i = 0; i < set.devices.size(); ++i) {
        benches.push_back(make_device_bench(node, set, i));
        pointers.push_back(benches.back().get());
    }
    std::vector<core::SpeedFunction> cpms;
    for (const auto& model : core::build_cpm_even_share(pointers, total_area)) {
        cpms.push_back(model.to_speed_function());
    }
    return cpms;
}

} // namespace fpm::app
