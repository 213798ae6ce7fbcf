#include "fpm/store/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/error.hpp"

namespace fpm::store {

namespace {

/// Slice-by-8: kCrcTables[k][b] is the CRC register after byte b and k
/// zero bytes, so eight lookups fold eight input bytes at once.
constexpr auto kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (auto& table : tables) {
            for (int bit = 0; bit < 8; ++bit) {
                c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
            }
            table[i] = c;
        }
    }
    return tables;
}();

void put_u32_le(std::string& out, std::uint32_t value) {
    out.push_back(static_cast<char>(value & 0xFF));
    out.push_back(static_cast<char>((value >> 8) & 0xFF));
    out.push_back(static_cast<char>((value >> 16) & 0xFF));
    out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

std::uint32_t get_u32_le(const unsigned char* bytes) {
    return static_cast<std::uint32_t>(bytes[0]) |
           (static_cast<std::uint32_t>(bytes[1]) << 8) |
           (static_cast<std::uint32_t>(bytes[2]) << 16) |
           (static_cast<std::uint32_t>(bytes[3]) << 24);
}

void write_all_at(int fd, const char* data, std::size_t size,
                  std::uint64_t offset, const std::string& path) {
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::pwrite(fd, data + written, size - written,
                                   static_cast<off_t>(offset + written));
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error("pwrite(" + path + "): " + std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
    const auto& t = kCrcTables;
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t low = c ^ get_u32_le(bytes);
        c = t[7][low & 0xFF] ^ t[6][(low >> 8) & 0xFF] ^
            t[5][(low >> 16) & 0xFF] ^ t[4][low >> 24] ^ t[3][bytes[4]] ^
            t[2][bytes[5]] ^ t[1][bytes[6]] ^ t[0][bytes[7]];
    }
    for (; size > 0; ++bytes, --size) {
        c = t[0][(c ^ *bytes) & 0xFF] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

std::string encode_frame(std::string_view payload) {
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    put_u32_le(frame, static_cast<std::uint32_t>(payload.size()));
    put_u32_le(frame, crc32(payload.data(), payload.size()));
    frame.append(payload.data(), payload.size());
    return frame;
}

std::optional<DecodedFrame> decode_frame(std::string_view bytes) noexcept {
    if (bytes.size() < kFrameHeaderBytes) {
        return std::nullopt;
    }
    const auto* header = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::uint32_t length = get_u32_le(header);
    if (length > kMaxFrameBytes ||
        bytes.size() - kFrameHeaderBytes < length) {
        return std::nullopt;  // garbage length or short payload
    }
    const std::string_view payload = bytes.substr(kFrameHeaderBytes, length);
    if (crc32(payload.data(), payload.size()) != get_u32_le(header + 4)) {
        return std::nullopt;
    }
    return DecodedFrame{payload, kFrameHeaderBytes + length};
}

ReplayResult replay_wal(const std::string& path, bool repair) {
    const int fd = ::open(path.c_str(), repair ? O_RDWR : O_RDONLY, 0);
    FPM_CHECK(fd >= 0, "cannot open log: " + path + ": " +
                           std::strerror(errno));

    ReplayResult result;
    std::string contents;
    try {
        char chunk[1 << 16];
        for (;;) {
            const ssize_t n = ::read(fd, chunk, sizeof chunk);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                throw Error("read(" + path + "): " + std::strerror(errno));
            }
            if (n == 0) {
                break;
            }
            contents.append(chunk, static_cast<std::size_t>(n));
        }

        // The first torn or corrupt frame ends the replay: everything
        // from there on is suspect.
        std::string_view rest = contents;
        while (const auto frame = decode_frame(rest)) {
            result.payloads.emplace_back(frame->payload);
            rest.remove_prefix(frame->size);
        }
        result.truncated_bytes = rest.size();
        if (result.truncated_bytes > 0 && repair) {
            const auto intact = static_cast<off_t>(contents.size() - rest.size());
            FPM_CHECK(::ftruncate(fd, intact) == 0,
                      "ftruncate(" + path + "): " + std::strerror(errno));
        }
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    return result;
}

WalFile::~WalFile() { close(); }

void WalFile::open(const std::string& path, std::uint64_t committed) {
    close();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    FPM_CHECK(fd_ >= 0,
              "cannot open log: " + path + ": " + std::strerror(errno));
    path_ = path;
    committed_ = committed;
}

std::uint64_t WalFile::append(std::string_view payload) {
    FPM_CHECK(fd_ >= 0, "log is not open");

    // Drop any torn bytes a previous failed append left past the
    // committed prefix, so every frame lands on a clean boundary.
    struct stat st{};
    FPM_CHECK(::fstat(fd_, &st) == 0,
              "fstat(" + path_ + "): " + std::strerror(errno));
    if (static_cast<std::uint64_t>(st.st_size) != committed_) {
        truncate_to(committed_);
    }

    const std::string frame = encode_frame(payload);

    static auto& append_fault = fault::point("store.append");
    if (append_fault.fire()) {
        // Simulated crash mid-append: half the frame reaches the disk,
        // then the write "fails".  The torn tail stays until the next
        // append (self-heal above) or a replay repair truncates it —
        // exactly what a kill -9 between two pwrites produces.
        write_all_at(fd_, frame.data(), frame.size() / 2, committed_, path_);
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: store.append");
    }

    write_all_at(fd_, frame.data(), frame.size(), committed_, path_);
    committed_ += frame.size();
    return frame.size();
}

void WalFile::fsync() {
    FPM_CHECK(fd_ >= 0, "log is not open");
    static auto& fsync_fault = fault::point("store.fsync");
    if (fsync_fault.fire()) {
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: store.fsync");
    }
    FPM_CHECK(::fdatasync(fd_) == 0,
              "fdatasync(" + path_ + "): " + std::strerror(errno));
}

void WalFile::truncate_to(std::uint64_t offset) {
    FPM_CHECK(fd_ >= 0, "log is not open");
    FPM_CHECK(::ftruncate(fd_, static_cast<off_t>(offset)) == 0,
              "ftruncate(" + path_ + "): " + std::strerror(errno));
    committed_ = offset;
}

void WalFile::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_.clear();
    committed_ = 0;
}

void fsync_dir(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        return;
    }
    (void)::fsync(fd);  // some filesystems reject dir fsync; best-effort
    ::close(fd);
}

} // namespace fpm::store
