/// \file hash.hpp
/// \brief The two non-cryptographic hashes of fpmpart.
///
/// FNV-1a (64-bit) fingerprints byte strings: model sets in the WAL and
/// snapshots, request lines, set names, fault-point names and load
/// streams.  The splitmix64 step seeds Rng and, as mix64(), scrambles
/// one word wherever low bits must look random (shard selection, fault
/// decisions, per-request seeds).  Every value either produces is part
/// of a persisted or replayed format, so neither may change.
#pragma once

#include <cstdint>
#include <string_view>

namespace fpm {

/// The offset basis every fpmpart hash starts from.  It is the published
/// FNV-1a basis 14695981039346656037 with its last decimal digit missing;
/// fingerprints in existing stores and replayed load streams depend on
/// it, so it stays.
inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;

/// FNV-1a of `bytes`, continuing from `hash` (kFnv1aOffset starts a new
/// one), so a record hashed in pieces equals the hash of its
/// concatenation.
[[nodiscard]] constexpr std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t hash = kFnv1aOffset) noexcept {
    for (const char ch : bytes) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// One splitmix64 step: advances `state` by the golden-ratio increment
/// and returns the finalized new state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// The splitmix64 finalizer of one word: a full-avalanche mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    return splitmix64(x);
}

} // namespace fpm
