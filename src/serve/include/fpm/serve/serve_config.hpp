/// \file serve_config.hpp
/// \brief The one typed knob set of the partition service transport.
///
/// Server (reactor), client and the fpmpart_serve tool all consume the
/// same struct, so a deployment's transport behaviour is described in
/// exactly one place: where the server binds, how many connections it
/// admits, when it evicts idle peers, and the deadlines a client applies
/// to connect and I/O.  Engine-side knobs (workers, cache capacity) stay
/// on RequestEngine::Options — they size the FEEDBACK/LOAD pool and cache.
#pragma once

#include <cstdint>
#include <string>

namespace fpm::serve {

/// See file comment.  Durations are seconds; non-positive values disable
/// the respective deadline.
struct ServeConfig {
    // -- listener -----------------------------------------------------
    std::uint16_t port = 0;                 ///< 0 = ephemeral
    std::string bind_address = "127.0.0.1";

    // -- reactor pool -------------------------------------------------
    /// Event-loop threads.  Each reactor owns its own epoll instance and
    /// listening socket; with more than one, the sockets are bound with
    /// SO_REUSEPORT so the kernel load-balances accepted connections.  A
    /// reactor computes its own connections' plans, so this is also how
    /// many compute at once.  1 (the default) skips SO_REUSEPORT.
    /// Clamped to >= 1.
    std::size_t num_reactors = 1;

    // -- reactor lifecycle --------------------------------------------
    /// Admission control: connections beyond this are answered with a
    /// one-line `ERR busy` and closed (counted in serve.reactor.rejected).
    /// The budget is global — shared by every reactor in the pool, not
    /// multiplied by num_reactors.
    std::size_t max_connections = 256;
    /// A connection with nothing in flight that the reactor has neither
    /// read from nor queued a reply to for this long is evicted, a client
    /// that stopped reading its replies included.  <= 0 disables.
    double idle_timeout = 60.0;

    // -- client deadlines ---------------------------------------------
    double connect_timeout = 5.0;  ///< non-blocking connect + poll
    double recv_timeout = 5.0;     ///< per send/recv (SO_RCVTIMEO/SNDTIMEO)

    // -- client retry (off by default) --------------------------------
    /// Extra attempts after the first failure of a retryable request
    /// (transport errors and `ERR busy`; for FEEDBACK only `ERR busy`).
    /// 0 disables retry entirely: every failure surfaces immediately, as
    /// prior releases did.
    int max_retries = 0;
    /// First backoff; attempt k sleeps backoff_base * 2^(k-1), capped
    /// at backoff_max, then widened by a uniform +-25 % jitter.
    double backoff_base = 0.02;
    double backoff_max = 0.5;
    /// Seed for the deterministic per-request jitter stream (xor'd with
    /// the request fingerprint, so identical configs replay exactly).
    std::uint64_t retry_seed = 0;

    // -- durable model store (off by default) -------------------------
    /// Directory of the write-ahead log + snapshot store (fpm::store).
    /// Empty disables durability entirely: published models live only in
    /// RAM, as prior releases did.  fpmpart_serve recovers the registry
    /// from this directory before serving and logs every publish to it.
    std::string store_dir = "";
    /// WAL durability: "always" fdatasyncs every publish record before
    /// the publish is acknowledged (crash loses nothing acknowledged);
    /// "never" leaves flushing to the OS (bounded loss, no fsync stall).
    std::string fsync_policy = "always";
    /// Publishes between automatic compacted snapshots (each one
    /// truncates the log); 0 disables auto-snapshots — the final snapshot
    /// at graceful stop still happens.
    std::uint64_t snapshot_every = 8;
};

} // namespace fpm::serve
