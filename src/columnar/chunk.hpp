// Column chunks: the storage unit of the columnar layout.
//
// A chunk shreds the serialized std::vector<T> products of up to chunk_rows
// EVENTS into one compressed column per member plus a metadata record, all
// stored as ordinary keys in the SAME products database as the blobs they
// mirror (placement therefore co-locates a chunk with its events):
//
//   col/<dataset uuid><label>#<type>/@meta/<chunkid BE64>   -> ChunkMeta
//   col/<dataset uuid><label>#<type>/<member>/<chunkid BE64>-> ColumnBlock
//
// The "col/" prefix keeps chunks disjoint from the uuid-prefixed container
// and product key ranges, so every pre-existing scan (blob pushdown, event
// iteration, migration) is oblivious to them. Chunks are an acceleration
// copy, not the source of truth: the blob product remains stored and
// readable, which is the blob-fallback compatibility contract — a reader
// that has never heard of chunks sees exactly the data it always did.
//
// Bit-identity: shred() parses each blob strictly against the schema
// (u64 LE row count + rows of flat little-endian members — the src/serial
// wire format for vectors of flat structs) and reassemble_event() emits the
// exact original bytes, byte for byte. A blob that does not parse exactly is
// rejected and stays blob-only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/schema.hpp"
#include "common/compression.hpp"
#include "common/status.hpp"

namespace hep::columnar {

inline constexpr std::string_view kColPrefix = "col/";
inline constexpr std::string_view kMetaMember = "@meta";
/// Dataset UUIDs are raw 16-byte strings inside keys.
inline constexpr std::size_t kUuidBytes = 16;

/// One compressed column payload: `count` elements of `width` bytes,
/// compressed with `codec`; `checksum` is the CRC32C (common/crc32.hpp) of
/// the UNcompressed bytes, verified after every decode.
struct ColumnBlock {
    std::uint8_t codec = 0;  // compress::Codec
    std::uint8_t width = 0;  // 1, 4 or 8
    std::uint64_t count = 0;
    std::uint32_t checksum = 0;
    std::string payload;

    template <typename A>
    void serialize(A& ar, unsigned /*version*/) {
        ar & codec & width & count & checksum & payload;
    }
    bool operator==(const ColumnBlock&) const = default;
};

/// How the writer picks codecs: auto tries them all per column and keeps the
/// smallest; the forced modes exist for the bedrock "compression" knob.
enum class CompressionMode : std::uint8_t {
    kAuto = 0,
    kRaw = 1,
    kVarint = 2,
    kDelta = 3,
};
Result<CompressionMode> parse_compression_mode(std::string_view name) noexcept;
std::string_view to_string(CompressionMode mode) noexcept;

/// Compress `count` elements of `width` bytes per `mode`.
ColumnBlock encode_block(const void* data, std::uint64_t count, std::size_t width,
                         CompressionMode mode);

/// Decompress into `out` (count*width bytes). Rejects bad codec/width,
/// payloads over the codec's size bound, non-exact consumption and checksum
/// mismatches — a corrupt block never crashes and never decodes silently.
Status decode_block(const ColumnBlock& block, void* out) noexcept;

/// Per-chunk metadata: the schema the columns follow plus the event
/// directory (coordinates and per-event row counts), itself stored as
/// compressed columns — metadata cost is what the pruned scan always pays,
/// so it is kept to a couple of bytes per event.
struct ChunkMeta {
    std::uint32_t format = 1;
    StructSchema schema;
    std::uint64_t num_events = 0;
    std::uint64_t total_rows = 0;
    ColumnBlock runs;        // u64 per event
    ColumnBlock subruns;     // u64 per event
    ColumnBlock events;      // u64 per event
    ColumnBlock row_counts;  // u32 per event

    template <typename A>
    void serialize(A& ar, unsigned /*version*/) {
        ar & format & schema & num_events & total_rows & runs & subruns & events & row_counts;
    }
};

/// ChunkMeta with the event directory decoded and offset-summed — what the
/// scan and the reassembler actually walk.
struct DecodedMeta {
    ChunkMeta meta;
    std::vector<std::uint64_t> runs;
    std::vector<std::uint64_t> subruns;
    std::vector<std::uint64_t> events;
    std::vector<std::uint32_t> row_counts;
    std::vector<std::uint64_t> row_offsets;  // prefix sums, size num_events+1
};

/// Parse + decode a serialized ChunkMeta value. Total: corrupt input yields
/// Corruption, never a crash.
Result<DecodedMeta> decode_meta(std::string_view value);

// ---- keys ------------------------------------------------------------------

/// "col/<uuid><suffix>/<member>/<chunkid BE64>"; `suffix` is the
/// "<label>#<type>" product-key tail, `uuid` the raw 16 dataset bytes.
std::string chunk_key(std::string_view uuid, std::string_view suffix, std::string_view member,
                      std::uint64_t chunk_id);

/// Scan prefix covering every @meta key of (dataset-prefix, product). With a
/// full 16-byte dataset uuid this is "col/<uuid><suffix>/@meta/", which
/// holds nothing but that product's chunk directory. A shorter prefix (it is
/// whatever OpenReq scopes the scan with) cannot name the product's range,
/// so it yields "col/<prefix>" and the per-key matcher below checks the full
/// structure of every key it passes.
std::string meta_scan_prefix(std::string_view dataset_prefix, std::string_view suffix);

/// True iff `key` is a chunk @meta key for the given product suffix;
/// extracts the dataset uuid and chunk id.
bool parse_meta_key(std::string_view key, std::string_view suffix, std::string_view& uuid,
                    std::uint64_t& chunk_id) noexcept;

// ---- shred / reassemble ----------------------------------------------------

/// One event's product blob queued for shredding.
struct EventBlob {
    std::uint64_t run = 0;
    std::uint64_t subrun = 0;
    std::uint64_t event = 0;
    std::string_view blob;  // serialized std::vector<RowStruct> bytes
};

struct ShreddedChunk {
    ChunkMeta meta;
    /// Member-name -> compressed column, in schema member order.
    std::vector<std::pair<std::string, ColumnBlock>> columns;
    std::uint64_t raw_bytes = 0;         // uncompressed column bytes
    std::uint64_t compressed_bytes = 0;  // stored payload bytes
};

/// Shred a batch of blobs per `schema`. Every blob must parse exactly as
/// u64 count + count*row_width bytes; otherwise InvalidArgument (the caller
/// leaves those events blob-only).
Result<ShreddedChunk> shred(const StructSchema& schema, const std::vector<EventBlob>& batch,
                            CompressionMode mode);

/// Decoded member columns of one chunk, raw bytes per member (schema order,
/// total_rows elements each). Missing members are empty strings.
using RawColumns = std::vector<std::string>;

/// Reassemble the original serialized blob of event `index` bit-identically
/// from fully decoded raw columns (every member present).
Result<std::string> reassemble_event(const DecodedMeta& meta, const RawColumns& columns,
                                     std::size_t index);

/// Widen one decoded member column (raw little-endian `type` elements) into
/// doubles rows [begin, end). Conversions are exact, matching
/// nova::slice_fields — comparisons over the widened values agree bit for
/// bit with comparisons over the original members.
void widen_to_doubles(MemberType type, const std::string& raw, std::size_t begin,
                      std::size_t end, double* out) noexcept;

}  // namespace hep::columnar
