// CRC32C (Castagnoli polynomial) for WAL, manifest, SSTable and column
// block integrity checks.
//
// Three paths compute the same value:
//   * x86-64 hosts with SSE4.2 use the crc32 instruction, eight bytes per
//     step (picked once per process by a runtime CPU check);
//   * other little-endian hosts use slicing-by-8: eight precomputed tables
//     fold eight input bytes per loop iteration;
//   * constant evaluation (and big-endian hosts) use the byte-at-a-time loop.
// Every LSM block read and every column decode verifies one of these, so the
// hardware path keeps verification off the read path's profile.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define HEP_CRC32C_X86 1
#endif

namespace hep {

namespace detail {
inline constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32c_slices() {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? kCrc32cPoly ^ (c >> 1) : c >> 1;
        }
        t[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            t[s][i] = t[0][t[s - 1][i] & 0xFF] ^ (t[s - 1][i] >> 8);
        }
    }
    return t;
}
inline constexpr auto kCrc32cSlices = make_crc32c_slices();

/// Byte-at-a-time update of a pre-inverted crc; usable in constant evaluation.
constexpr std::uint32_t crc32c_bytewise(std::string_view data, std::uint32_t crc) noexcept {
    for (char ch : data) {
        crc = kCrc32cSlices[0][(crc ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
    }
    return crc;
}

/// Slicing-by-8 update of a pre-inverted crc (little-endian hosts).
inline std::uint32_t crc32c_sliced(const char* p, std::size_t n, std::uint32_t crc) noexcept {
    const auto& t = kCrc32cSlices;
    while (n >= 8) {
        std::uint32_t lo = 0, hi = 0;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
              t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    return crc32c_bytewise({p, n}, crc);
}

#if defined(HEP_CRC32C_X86)
/// SSE4.2 update of a pre-inverted crc. Call only when crc32c_hw_available().
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(const char* p, std::size_t n,
                                                                 std::uint32_t crc) noexcept {
    std::uint64_t c = crc;
    while (n >= 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p, 8);
        c = _mm_crc32_u64(c, w);
        p += 8;
        n -= 8;
    }
    auto c32 = static_cast<std::uint32_t>(c);
    while (n--) c32 = _mm_crc32_u8(c32, static_cast<std::uint8_t>(*p++));
    return c32;
}

inline bool crc32c_hw_available() noexcept {
    // cpu_init first: this may run from another static initializer, before
    // the runtime has filled in the CPU model __builtin_cpu_supports reads.
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return available;
}
#else
inline bool crc32c_hw_available() noexcept { return false; }
#endif
}  // namespace detail

/// Incremental CRC32C; start with crc=0, feed chunks (passing the previous
/// result back in), read the result.
constexpr std::uint32_t crc32c(std::string_view data, std::uint32_t crc = 0) noexcept {
    crc = ~crc;
    if (!std::is_constant_evaluated()) {
#if defined(HEP_CRC32C_X86)
        if (detail::crc32c_hw_available()) {
            return ~detail::crc32c_hw(data.data(), data.size(), crc);
        }
#endif
        if constexpr (std::endian::native == std::endian::little) {
            return ~detail::crc32c_sliced(data.data(), data.size(), crc);
        }
    }
    return ~detail::crc32c_bytewise(data, crc);
}

}  // namespace hep
