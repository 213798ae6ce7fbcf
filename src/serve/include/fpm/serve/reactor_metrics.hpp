/// \file reactor_metrics.hpp
/// \brief The reactor's process-global obs instruments.
///
/// One resolution point for every `serve.reactor.*` metric, shared by
/// the reactor (which writes them) and the STATS builder in protocol.cpp
/// (which reads them back into the wire reply).  Instruments live in the
/// process-global MetricsRegistry, so STATS reflects every server that
/// ran in this process and the counters survive server restarts.
#pragma once

#include "fpm/obs/metrics.hpp"

namespace fpm::serve {

/// See file comment.
struct ReactorMetrics {
    obs::Gauge& open_connections;  ///< currently accepted connections
    obs::Gauge& buffered_bytes;    ///< sum of per-connection in+out buffers
    obs::Gauge& reactors;          ///< event-loop threads of every running
                                   ///  server in the process
    obs::Counter& accepted;
    obs::Counter& rejected;        ///< admission-control `ERR busy` closes
    obs::Counter& idle_timeouts;   ///< idle-timeout evictions
    obs::Counter& send_failures;   ///< write errors that closed a connection
    obs::Counter& pipelined;       ///< lines the reactor already held when
                                   ///  its connection's previous reply
                                   ///  was queued
    obs::Histogram& queue_to_reply_seconds;  ///< the recv that brought a
                                             ///  request in -> its reply
                                             ///  queued for the socket

    static const ReactorMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ReactorMetrics metrics{
            registry.gauge("serve.reactor.open_connections"),
            registry.gauge("serve.reactor.buffered_bytes"),
            registry.gauge("serve.reactor.reactors"),
            registry.counter("serve.reactor.accepted"),
            registry.counter("serve.reactor.rejected"),
            registry.counter("serve.reactor.idle_timeouts"),
            registry.counter("serve.reactor.send_failures"),
            registry.counter("serve.reactor.pipelined"),
            registry.histogram("serve.reactor.queue_to_reply_seconds")};
        return metrics;
    }
};

} // namespace fpm::serve
