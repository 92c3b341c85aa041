// Hot-product read cache core: a byte-bounded LRU over zero-copy
// hep::BufferView values with lease/epoch freshness (the "Read cache tier"
// of DESIGN.md).
//
// One class serves both deployments of the tier:
//   * the per-DataStore client cache ("cache/client" symbio source), and
//   * the dedicated cache::Provider's table ("cache/<provider>" source).
//
// Freshness contract. Every entry records
//   - the owning database's mutation sequence number observed at fill
//     (replica::ReplicaSet seqs when the db is replicated, the backend's
//     put+erase count otherwise),
//   - the *db epoch* and *target epoch* current when the fill was issued, and
//   - the fill timestamp.
// A lookup serves the entry only while both epochs still match and the lease
// window has not elapsed. Mutations bump the db epoch (put/erase/write-batch
// flush → every cached value of that database is dropped at once), failover
// promotions bump the demoted target's epoch (entries filled from a demoted
// primary die immediately), and an expired lease demands revalidation against
// the owner's current seq before the entry may be served again. A cached
// read is therefore never stale past the lease window, and never stale AT
// ALL with respect to mutations issued through the same client.
//
// Epochs are captured in a Ticket BEFORE the fill's read is issued: if a
// mutation lands between the read and the insert, the entry is born with an
// outdated epoch and the next lookup rejects it — the classic
// read-fill/write race cannot resurrect an overwritten value.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/json.hpp"
#include "symbio/metrics.hpp"

namespace hep::cache {

struct CacheOptions {
    bool enabled = true;
    std::size_t capacity_bytes = 64ull << 20;
    std::size_t max_entries = 1ull << 16;
    std::uint32_t lease_ms = 1000;
    /// Start in bypass mode: lookups and fills are skipped (invalidations
    /// still apply), for callers that demand read-your-writes from OTHER
    /// clients too. Toggleable at runtime via LeaseCache::set_bypass.
    bool bypass = false;

    /// Parse {"enabled": true, "capacity_bytes": ..., "max_entries": ...,
    /// "lease_ms": ..., "bypass": false}; missing fields keep defaults.
    static CacheOptions from_json(const json::Value& cfg);
};

/// Canonical identity of one logical database as the cache keys its epochs.
inline std::string db_epoch_key(std::string_view server, std::uint16_t provider,
                                std::string_view db) {
    std::string out(server);
    out += '/';
    out += std::to_string(provider);
    out += '/';
    out += db;
    return out;
}

class LeaseCache {
  public:
    explicit LeaseCache(CacheOptions opts = {});

    enum class LookupState { kMiss, kHit, kExpired };

    struct Lookup {
        LookupState state = LookupState::kMiss;
        hep::BufferView value;  // valid for kHit and kExpired
        std::uint64_t seq = 0;  // owner mutation seq observed at fill
        std::uint64_t vseq = 0;    // the value's own MVCC stamp: snapshot
        std::uint32_t vepoch = 0;  // readers check it against their pin
    };

    /// Epochs captured before a fill's read is issued (see file comment).
    struct Ticket {
        std::string db_id;
        std::string target;
        std::uint64_t db_epoch = 0;
        std::uint64_t target_epoch = 0;
    };

    /// Serve `key` if present: kHit moves the entry to the MRU end and hands
    /// out its (refcounted, zero-copy) view; kExpired returns the value so
    /// the caller may revalidate-and-renew; epoch-stale entries are dropped
    /// and reported as a miss.
    Lookup lookup(std::string_view key);

    /// Probe a whole page of keys under one lock and one clock read (the
    /// bulk-load paths): out[i] is what lookup(keys[i]) would return.
    std::vector<Lookup> lookup_many(std::span<const std::string> keys);

    /// Capture the current epochs of (db_id, target) for a fill in flight.
    Ticket ticket(std::string db_id, std::string target);

    /// Insert (or replace) an entry carrying the ticket's epochs. vseq/vepoch
    /// are the value's own MVCC stamp (0,0 = unknown: pinned lookups bypass).
    void fill(std::string key, hep::BufferView value, std::uint64_t seq, const Ticket& t,
              std::uint64_t vseq = 0, std::uint32_t vepoch = 0);

    /// Refresh an expired entry's lease after the owner's seq was confirmed
    /// unchanged. `t` must have been captured BEFORE the seq probe: a
    /// failover promotion (or any mutation) between the probe and this call
    /// bumps an epoch past the ticket's and the renewal is refused — a
    /// demoted primary cannot keep its stale leases alive. Returns false if
    /// the entry is gone, its seq moved, or the ticket's epochs are stale.
    bool renew(std::string_view key, std::uint64_t seq, const Ticket& t);

    /// renew() for a page of expired keys revalidated by ONE seq probe, in
    /// one locked pass. out[i] is the value whose lease was renewed (the
    /// entry as it stands now, so a racing refill is never served under an
    /// older lookup's bytes), nullopt where the renewal was refused.
    std::vector<std::optional<hep::BufferView>> renew_many(
        std::span<const std::string_view> keys, std::uint64_t seq, const Ticket& t);

    void erase(std::string_view key);

    /// A mutation landed on `db_id`: every entry filled from it is dead.
    void bump_db(const std::string& db_id);

    /// `target` was demoted by a failover promotion: every entry it served
    /// is suspect (it may have missed mutations accepted by the new primary).
    void bump_target(const std::string& target);

    void clear();

    [[nodiscard]] bool enabled() const noexcept { return opts_.enabled; }
    [[nodiscard]] bool bypass() const noexcept {
        return bypass_.load(std::memory_order_relaxed);
    }
    void set_bypass(bool on) noexcept { bypass_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] const CacheOptions& options() const noexcept { return opts_; }

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t bytes() const;

    /// Read-latency histograms (milliseconds), sampled by the read paths.
    [[nodiscard]] symbio::Histogram& hit_latency() noexcept { return hit_latency_; }
    [[nodiscard]] symbio::Histogram& miss_latency() noexcept { return miss_latency_; }

    struct Counters {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;
        std::uint64_t invalidations = 0;   // epoch bumps (db + target)
        std::uint64_t stale_drops = 0;     // lookups rejected by an epoch mismatch
        std::uint64_t lease_expiries = 0;  // lookups past the lease window
        std::uint64_t renewals = 0;        // successful revalidations
    };
    [[nodiscard]] Counters counters() const;

    /// Snapshot for the symbio "cache/client" / "cache/<provider>" sources.
    [[nodiscard]] json::Value stats_json() const;

  private:
    /// Transparent hashing: lookups by string_view build no std::string.
    /// Deliberately not noexcept: libstdc++ then caches each node's hash
    /// code, as it does for std::hash<std::string>, so bucket scans and
    /// rehashes never rehash the (long) product keys.
    struct KeyHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };
    template <typename V>
    using StringMap = std::unordered_map<std::string, V, KeyHash, std::equal_to<>>;

    struct Entry {
        std::string key;
        hep::BufferView value;
        std::uint64_t seq = 0;
        std::uint64_t vseq = 0;    // value's MVCC stamp (0 = unknown)
        std::uint32_t vepoch = 0;
        std::uint64_t db_epoch = 0;
        std::uint64_t target_epoch = 0;
        // The live epoch counters of the fill's db and target. Epoch-map
        // nodes are never erased, so the pointers stay valid and a lookup
        // checks freshness without hashing the db/target names.
        const std::uint64_t* db_epoch_now = nullptr;
        const std::uint64_t* target_epoch_now = nullptr;
        std::chrono::steady_clock::time_point filled_at;
    };
    using List = std::list<Entry>;

    [[nodiscard]] std::size_t entry_bytes(const Entry& e) const noexcept {
        return e.key.size() + e.value.size();
    }
    using Clock = std::chrono::steady_clock;
    Lookup lookup_locked(std::string_view key, Clock::time_point now);
    /// The ticket's live epoch counters, or null when an epoch moved since
    /// the ticket was captured (then nothing may be renewed against it).
    struct TicketEpochs {
        const std::uint64_t* db = nullptr;
        const std::uint64_t* target = nullptr;
    };
    TicketEpochs current_epochs_locked(const Ticket& t);
    /// The renewed entry, or null when the renewal is refused.
    const Entry* renew_locked(std::string_view key, std::uint64_t seq, const Ticket& t,
                              const TicketEpochs& live, Clock::time_point now);
    void unlink_locked(List::iterator it);
    void evict_locked();

    CacheOptions opts_;
    std::atomic<bool> bypass_{false};

    mutable std::mutex mu_;
    List lru_;  // front = MRU
    StringMap<List::iterator> index_;
    StringMap<std::uint64_t> db_epochs_;
    StringMap<std::uint64_t> target_epochs_;
    std::size_t bytes_ = 0;
    Counters counters_;

    symbio::Histogram hit_latency_;
    symbio::Histogram miss_latency_;
};

}  // namespace hep::cache
