/// \file split.hpp
/// \brief Splitting text in place, without allocating, the way a stream
///        splits it: tokens as `>>` reads them, parts as std::getline
///        cuts them.
///
/// The wire protocol decodes request and reply lines with these, and the
/// model and store codecs parse model text and record headers with them,
/// so every text format of fpmpart splits by the same rules.  Views
/// point into the caller's text, which must outlive them.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string_view>

namespace fpm {

/// The bytes the C locale's isspace() matches, which `>>` skips between
/// tokens: space, \t, \n, \v, \f and \r.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Takes the next token (a run of bytes that are not is_space()) off the
/// front of `rest`; empty once only spaces remain.
[[nodiscard]] constexpr std::string_view next_token(
    std::string_view& rest) noexcept {
    std::size_t begin = 0;
    while (begin < rest.size() && is_space(rest[begin])) {
        ++begin;
    }
    std::size_t end = begin;
    while (end < rest.size() && !is_space(rest[end])) {
        ++end;
    }
    const std::string_view token = rest.substr(begin, end - begin);
    rest.remove_prefix(end);
    return token;
}

/// Cuts the next `sep`-terminated part off the front of `rest`, as
/// std::getline does: false once `rest` is empty, so empty text has no
/// part and a trailing separator adds none.
constexpr bool next_part(std::string_view& rest, char sep,
                         std::string_view& part) noexcept {
    if (rest.empty()) {
        return false;
    }
    part = rest.substr(0, rest.find(sep));
    rest.remove_prefix(std::min(part.size() + 1, rest.size()));
    return true;
}

/// Calls `visit` on each part next_part() cuts from `text`.
template <class Visit>
void for_each_part(std::string_view text, char sep, Visit&& visit) {
    for (std::string_view part; next_part(text, sep, part);) {
        visit(part);
    }
}

/// The first N pieces of a split and the number of pieces in all, so an
/// arity check needs no allocation.  Pieces past `size` are empty.
template <std::size_t N>
struct Pieces {
    std::array<std::string_view, N> at{};
    std::size_t size = 0;

    void add(std::string_view piece) {
        if (size < N) {
            at[size] = piece;
        }
        ++size;
    }
    std::string_view operator[](std::size_t i) const { return at[i]; }
};

/// The tokens of `line`, split as next_token() splits.
template <std::size_t N>
Pieces<N> tokens_of(std::string_view line) {
    Pieces<N> tokens;
    for (std::string_view token = next_token(line); !token.empty();
         token = next_token(line)) {
        tokens.add(token);
    }
    return tokens;
}

/// The `sep`-separated parts of `text`, split as next_part() splits.
template <std::size_t N>
Pieces<N> parts_of(std::string_view text, char sep) {
    Pieces<N> parts;
    for_each_part(text, sep,
                  [&parts](std::string_view part) { parts.add(part); });
    return parts;
}

} // namespace fpm
