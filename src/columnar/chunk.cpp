#include "columnar/chunk.hpp"

#include <cstring>

#include "common/crc32.hpp"
#include "common/endian.hpp"
#include "serial/archive.hpp"

namespace hep::columnar {

Result<CompressionMode> parse_compression_mode(std::string_view name) noexcept {
    if (name.empty() || name == "auto") return CompressionMode::kAuto;
    if (name == "raw") return CompressionMode::kRaw;
    if (name == "varint") return CompressionMode::kVarint;
    if (name == "delta") return CompressionMode::kDelta;
    return Status::InvalidArgument("unknown compression mode '" + std::string(name) + "'");
}

std::string_view to_string(CompressionMode mode) noexcept {
    switch (mode) {
        case CompressionMode::kAuto: return "auto";
        case CompressionMode::kRaw: return "raw";
        case CompressionMode::kVarint: return "varint";
        case CompressionMode::kDelta: return "delta";
    }
    return "?";
}

ColumnBlock encode_block(const void* data, std::uint64_t count, std::size_t width,
                         CompressionMode mode) {
    ColumnBlock block;
    block.width = static_cast<std::uint8_t>(width);
    block.count = count;
    block.checksum = crc32c(std::string_view(static_cast<const char*>(data), count * width));
    if (mode == CompressionMode::kAuto) {
        auto [codec, payload] = compress::compress_auto(data, count, width);
        block.codec = static_cast<std::uint8_t>(codec);
        block.payload = std::move(payload);
        return block;
    }
    const auto codec = static_cast<compress::Codec>(static_cast<std::uint8_t>(mode) - 1);
    auto payload = compress::compress(codec, data, count, width);
    if (payload.ok()) {
        block.codec = static_cast<std::uint8_t>(codec);
        block.payload = std::move(*payload);
    } else {
        block.codec = static_cast<std::uint8_t>(compress::Codec::kRaw);
        block.payload.assign(static_cast<const char*>(data), count * width);
    }
    return block;
}

Status decode_block(const ColumnBlock& block, void* out) noexcept {
    if (!compress::valid_codec(block.codec)) {
        return Status::Corruption("column block carries an unknown codec");
    }
    if (!compress::valid_width(block.width)) {
        return Status::Corruption("column block carries an unsupported width");
    }
    Status st = compress::decompress(static_cast<compress::Codec>(block.codec), block.payload,
                                     block.count, block.width, out);
    if (!st.ok()) return st;
    const std::string_view raw(static_cast<const char*>(out), block.count * block.width);
    if (crc32c(raw) != block.checksum) {
        return Status::Corruption("column block checksum mismatch");
    }
    return Status::OK();
}

namespace {

/// Bounded elements per block: a hostile count must not drive a giant
/// allocation before the payload size bound rejects it. 2^28 rows * 8 bytes
/// = 2 GiB is far above any real chunk.
constexpr std::uint64_t kMaxBlockElems = 1ull << 28;

Result<std::string> decode_block_to_string(const ColumnBlock& block) {
    if (block.count > kMaxBlockElems) {
        return Status::Corruption("column block claims an absurd element count");
    }
    // Reject before allocating: a truncated payload cannot possibly hold
    // count elements of any codec (each element costs >= 1 byte, raw costs
    // width) and an oversized one violates the codec bound.
    if (block.codec == static_cast<std::uint8_t>(compress::Codec::kRaw)) {
        if (block.payload.size() != block.count * block.width) {
            return Status::Corruption("raw column payload has wrong size");
        }
    } else if (block.payload.size() < block.count) {
        return Status::Corruption("column payload too short for its element count");
    }
    std::string raw;
    raw.resize(block.count * block.width);
    if (Status st = decode_block(block, raw.data()); !st.ok()) return st;
    return raw;
}

template <typename T>
Result<std::vector<T>> decode_block_typed(const ColumnBlock& block) {
    if (block.width != sizeof(T)) {
        return Status::Corruption("column block width does not match the expected type");
    }
    auto raw = decode_block_to_string(block);
    if (!raw.ok()) return raw.status();
    std::vector<T> out(block.count);
    if (block.count > 0) std::memcpy(out.data(), raw->data(), raw->size());
    return out;
}

}  // namespace

Result<DecodedMeta> decode_meta(std::string_view value) {
    ChunkMeta meta;
    try {
        serial::from_string(value, meta);
    } catch (const serial::SerializationError& e) {
        return Status::Corruption(std::string("chunk meta undecodable: ") + e.what());
    }
    if (meta.format != 1) {
        return Status::Corruption("chunk meta has unknown format " +
                                  std::to_string(meta.format));
    }
    if (Status st = meta.schema.validate(); !st.ok()) {
        return Status::Corruption("chunk meta schema invalid: " + st.to_string());
    }
    if (meta.num_events == 0 || meta.num_events > kMaxBlockElems) {
        return Status::Corruption("chunk meta has a bad event count");
    }
    if (meta.runs.count != meta.num_events || meta.subruns.count != meta.num_events ||
        meta.events.count != meta.num_events || meta.row_counts.count != meta.num_events) {
        return Status::Corruption("chunk meta directory columns disagree on length");
    }
    DecodedMeta out;
    auto runs = decode_block_typed<std::uint64_t>(meta.runs);
    if (!runs.ok()) return runs.status();
    auto subruns = decode_block_typed<std::uint64_t>(meta.subruns);
    if (!subruns.ok()) return subruns.status();
    auto events = decode_block_typed<std::uint64_t>(meta.events);
    if (!events.ok()) return events.status();
    auto counts = decode_block_typed<std::uint32_t>(meta.row_counts);
    if (!counts.ok()) return counts.status();
    out.runs = std::move(*runs);
    out.subruns = std::move(*subruns);
    out.events = std::move(*events);
    out.row_counts = std::move(*counts);
    out.row_offsets.resize(meta.num_events + 1);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < out.row_counts.size(); ++i) {
        out.row_offsets[i] = total;
        total += out.row_counts[i];
    }
    out.row_offsets.back() = total;
    if (total != meta.total_rows) {
        return Status::Corruption("chunk meta row counts do not sum to total_rows");
    }
    out.meta = std::move(meta);
    return out;
}

// ---- keys ------------------------------------------------------------------

std::string chunk_key(std::string_view uuid, std::string_view suffix, std::string_view member,
                      std::uint64_t chunk_id) {
    std::string key;
    key.reserve(kColPrefix.size() + uuid.size() + suffix.size() + member.size() + 10);
    key.append(kColPrefix);
    key.append(uuid);
    key.append(suffix);
    key.push_back('/');
    key.append(member);
    key.push_back('/');
    append_be64(key, chunk_id);
    return key;
}

std::string meta_scan_prefix(std::string_view dataset_prefix, std::string_view suffix) {
    std::string prefix(kColPrefix);
    prefix.append(dataset_prefix);
    if (dataset_prefix.size() == kUuidBytes) {
        prefix.append(suffix);
        prefix.push_back('/');
        prefix.append(kMetaMember);
        prefix.push_back('/');
    }
    return prefix;
}

bool parse_meta_key(std::string_view key, std::string_view suffix, std::string_view& uuid,
                    std::uint64_t& chunk_id) noexcept {
    // col/ + uuid(16) + suffix + '/' + @meta + '/' + BE64(8)
    const std::size_t want =
        kColPrefix.size() + kUuidBytes + suffix.size() + 1 + kMetaMember.size() + 1 + 8;
    if (key.size() != want) return false;
    if (key.substr(0, kColPrefix.size()) != kColPrefix) return false;
    std::size_t pos = kColPrefix.size();
    uuid = key.substr(pos, kUuidBytes);
    pos += kUuidBytes;
    if (key.substr(pos, suffix.size()) != suffix) return false;
    pos += suffix.size();
    if (key[pos] != '/') return false;
    ++pos;
    if (key.substr(pos, kMetaMember.size()) != kMetaMember) return false;
    pos += kMetaMember.size();
    if (key[pos] != '/') return false;
    ++pos;
    chunk_id = decode_be64(key.substr(pos, 8));
    return true;
}

// ---- shred / reassemble ----------------------------------------------------

Result<ShreddedChunk> shred(const StructSchema& schema, const std::vector<EventBlob>& batch,
                            CompressionMode mode) {
    if (Status st = schema.validate(); !st.ok()) return st;
    if (batch.empty()) return Status::InvalidArgument("cannot shred an empty batch");

    const std::size_t row_width = schema.row_width();
    std::uint64_t total_rows = 0;
    std::vector<std::uint32_t> row_counts;
    row_counts.reserve(batch.size());
    for (const auto& ev : batch) {
        if (ev.blob.size() < 8) {
            return Status::InvalidArgument("product blob shorter than its row count");
        }
        std::uint64_t count = 0;
        std::memcpy(&count, ev.blob.data(), 8);  // serial writes LE; we run LE
        if (ev.blob.size() != 8 + count * row_width) {
            return Status::InvalidArgument("product blob does not match the schema layout");
        }
        if (count > 0xFFFFFFFFull) {
            return Status::InvalidArgument("product has too many rows for a chunk");
        }
        row_counts.push_back(static_cast<std::uint32_t>(count));
        total_rows += count;
    }

    // Scatter: one flat little-endian array per member.
    std::vector<std::string> member_bytes(schema.members.size());
    for (std::size_t m = 0; m < schema.members.size(); ++m) {
        member_bytes[m].resize(total_rows * width_of(schema.members[m].type));
    }
    std::uint64_t row = 0;
    for (const auto& ev : batch) {
        const char* p = ev.blob.data() + 8;
        const std::uint64_t rows_here = (ev.blob.size() - 8) / row_width;
        for (std::uint64_t r = 0; r < rows_here; ++r, ++row) {
            for (std::size_t m = 0; m < schema.members.size(); ++m) {
                const std::size_t w = width_of(schema.members[m].type);
                std::memcpy(member_bytes[m].data() + row * w, p, w);
                p += w;
            }
        }
    }

    ShreddedChunk out;
    out.meta.schema = schema;
    out.meta.num_events = batch.size();
    out.meta.total_rows = total_rows;
    std::vector<std::uint64_t> runs, subruns, events;
    runs.reserve(batch.size());
    subruns.reserve(batch.size());
    events.reserve(batch.size());
    for (const auto& ev : batch) {
        runs.push_back(ev.run);
        subruns.push_back(ev.subrun);
        events.push_back(ev.event);
    }
    out.meta.runs = encode_block(runs.data(), runs.size(), 8, mode);
    out.meta.subruns = encode_block(subruns.data(), subruns.size(), 8, mode);
    out.meta.events = encode_block(events.data(), events.size(), 8, mode);
    out.meta.row_counts = encode_block(row_counts.data(), row_counts.size(), 4, mode);

    out.columns.reserve(schema.members.size());
    for (std::size_t m = 0; m < schema.members.size(); ++m) {
        const std::size_t w = width_of(schema.members[m].type);
        ColumnBlock block = encode_block(member_bytes[m].data(), total_rows, w, mode);
        out.raw_bytes += member_bytes[m].size();
        out.compressed_bytes += block.payload.size();
        out.columns.emplace_back(schema.members[m].name, std::move(block));
    }
    return out;
}

Result<std::string> reassemble_event(const DecodedMeta& meta, const RawColumns& columns,
                                     std::size_t index) {
    if (index >= meta.meta.num_events) {
        return Status::InvalidArgument("event index out of range for chunk");
    }
    const StructSchema& schema = meta.meta.schema;
    if (columns.size() != schema.members.size()) {
        return Status::InvalidArgument("reassembly needs every member column");
    }
    const std::uint64_t begin = meta.row_offsets[index];
    const std::uint64_t end = meta.row_offsets[index + 1];
    for (std::size_t m = 0; m < schema.members.size(); ++m) {
        if (columns[m].size() != meta.meta.total_rows * width_of(schema.members[m].type)) {
            return Status::Corruption("member column has the wrong decoded size");
        }
    }
    std::string blob;
    blob.resize(8 + (end - begin) * schema.row_width());
    const std::uint64_t count = end - begin;
    std::memcpy(blob.data(), &count, 8);  // LE, matching serial's vector prefix
    char* p = blob.data() + 8;
    for (std::uint64_t r = begin; r < end; ++r) {
        for (std::size_t m = 0; m < schema.members.size(); ++m) {
            const std::size_t w = width_of(schema.members[m].type);
            std::memcpy(p, columns[m].data() + r * w, w);
            p += w;
        }
    }
    return blob;
}

void widen_to_doubles(MemberType type, const std::string& raw, std::size_t begin,
                      std::size_t end, double* out) noexcept {
    const std::size_t w = width_of(type);
    const char* base = raw.data() + begin * w;
    switch (type) {
        case MemberType::kUInt8:
            for (std::size_t i = 0; i < end - begin; ++i) {
                out[i] = static_cast<unsigned char>(base[i]);
            }
            break;
        case MemberType::kInt32:
            for (std::size_t i = 0; i < end - begin; ++i) {
                std::int32_t v;
                std::memcpy(&v, base + i * 4, 4);
                out[i] = v;
            }
            break;
        case MemberType::kUInt32:
            for (std::size_t i = 0; i < end - begin; ++i) {
                std::uint32_t v;
                std::memcpy(&v, base + i * 4, 4);
                out[i] = v;
            }
            break;
        case MemberType::kInt64:
            for (std::size_t i = 0; i < end - begin; ++i) {
                std::int64_t v;
                std::memcpy(&v, base + i * 8, 8);
                out[i] = static_cast<double>(v);
            }
            break;
        case MemberType::kUInt64:
            for (std::size_t i = 0; i < end - begin; ++i) {
                std::uint64_t v;
                std::memcpy(&v, base + i * 8, 8);
                out[i] = static_cast<double>(v);
            }
            break;
        case MemberType::kFloat32:
            for (std::size_t i = 0; i < end - begin; ++i) {
                float v;
                std::memcpy(&v, base + i * 4, 4);
                out[i] = v;
            }
            break;
        case MemberType::kFloat64:
            for (std::size_t i = 0; i < end - begin; ++i) {
                std::memcpy(&out[i], base + i * 8, 8);
            }
            break;
    }
}

}  // namespace hep::columnar
