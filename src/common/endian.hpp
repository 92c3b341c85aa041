// Big-endian encoding helpers.
//
// HEPnOS encodes run/subrun/event numbers big-endian inside container keys so
// that lexicographic key order inside a database equals ascending numeric
// order (paper §II-C1). These helpers are the single source of truth for that
// encoding.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hep {

/// Write the 8-byte big-endian encoding of `v` to `out[0..8)`.
inline void store_be64(char* out, std::uint64_t v) noexcept {
    for (int i = 7; i >= 0; --i) {
        out[i] = static_cast<char>(v & 0xFF);
        v >>= 8;
    }
}

/// Append the 8-byte big-endian encoding of `v` to `out`.
inline void append_be64(std::string& out, std::uint64_t v) {
    char buf[8];
    store_be64(buf, v);
    out.append(buf, 8);
}

/// Encode `v` as an 8-character big-endian string.
inline std::string encode_be64(std::uint64_t v) {
    std::string out;
    out.reserve(8);
    append_be64(out, v);
    return out;
}

/// Decode 8 big-endian bytes starting at `data`.
inline std::uint64_t decode_be64(const char* data) noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v = (v << 8) | static_cast<std::uint8_t>(data[i]);
    }
    return v;
}

/// Decode the first 8 bytes of `s` (must have size >= 8).
inline std::uint64_t decode_be64(std::string_view s) noexcept {
    return decode_be64(s.data());
}

/// Append the 4-byte big-endian encoding of `v` to `out`.
inline void append_be32(std::string& out, std::uint32_t v) {
    char buf[4];
    for (int i = 3; i >= 0; --i) {
        buf[i] = static_cast<char>(v & 0xFF);
        v >>= 8;
    }
    out.append(buf, 4);
}

/// Decode 4 big-endian bytes starting at `data`.
inline std::uint32_t decode_be32(const char* data) noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v = (v << 8) | static_cast<std::uint8_t>(data[i]);
    }
    return v;
}

}  // namespace hep
