#include "cache/lease_cache.hpp"

namespace hep::cache {

CacheOptions CacheOptions::from_json(const json::Value& cfg) {
    CacheOptions opts;
    if (!cfg.is_object()) return opts;
    opts.enabled = cfg["enabled"].as_bool(opts.enabled);
    if (cfg.contains("capacity_bytes")) {
        opts.capacity_bytes = static_cast<std::size_t>(cfg["capacity_bytes"].as_int());
    }
    if (cfg.contains("max_entries")) {
        opts.max_entries = static_cast<std::size_t>(cfg["max_entries"].as_int());
    }
    if (cfg.contains("lease_ms")) {
        opts.lease_ms = static_cast<std::uint32_t>(cfg["lease_ms"].as_int());
    }
    opts.bypass = cfg["bypass"].as_bool(opts.bypass);
    if (opts.max_entries == 0) opts.max_entries = 1;
    return opts;
}

LeaseCache::LeaseCache(CacheOptions opts) : opts_(opts) {
    bypass_.store(opts_.bypass, std::memory_order_relaxed);
}

LeaseCache::Lookup LeaseCache::lookup(std::string_view key) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    return lookup_locked(key, now);
}

std::vector<LeaseCache::Lookup> LeaseCache::lookup_many(std::span<const std::string> keys) {
    std::vector<Lookup> out(keys.size());
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < keys.size(); ++i) out[i] = lookup_locked(keys[i], now);
    return out;
}

LeaseCache::Lookup LeaseCache::lookup_locked(std::string_view key, Clock::time_point now) {
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++counters_.misses;
        return {};
    }
    Entry& e = *it->second;
    if (*e.db_epoch_now != e.db_epoch || *e.target_epoch_now != e.target_epoch) {
        ++counters_.stale_drops;
        ++counters_.misses;
        unlink_locked(it->second);
        return {};
    }
    const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(now - e.filled_at);
    if (age.count() >= static_cast<std::int64_t>(opts_.lease_ms)) {
        ++counters_.lease_expiries;
        return {LookupState::kExpired, e.value, e.seq, e.vseq, e.vepoch};
    }
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    return {LookupState::kHit, e.value, e.seq, e.vseq, e.vepoch};
}

LeaseCache::Ticket LeaseCache::ticket(std::string db_id, std::string target) {
    std::lock_guard<std::mutex> lock(mu_);
    Ticket t;
    t.db_epoch = db_epochs_[db_id];
    t.target_epoch = target_epochs_[target];
    t.db_id = std::move(db_id);
    t.target = std::move(target);
    return t;
}

void LeaseCache::fill(std::string key, hep::BufferView value, std::uint64_t seq,
                      const Ticket& t, std::uint64_t vseq, std::uint32_t vepoch) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) unlink_locked(it->second);
    Entry e;
    e.key = std::move(key);
    e.value = std::move(value);
    e.seq = seq;
    e.vseq = vseq;
    e.vepoch = vepoch;
    e.db_epoch = t.db_epoch;
    e.target_epoch = t.target_epoch;
    e.db_epoch_now = &db_epochs_.try_emplace(t.db_id).first->second;
    e.target_epoch_now = &target_epochs_.try_emplace(t.target).first->second;
    e.filled_at = Clock::now();
    bytes_ += entry_bytes(e);
    lru_.push_front(std::move(e));
    index_.emplace(lru_.front().key, lru_.begin());
    ++counters_.fills;
    evict_locked();
}

bool LeaseCache::renew(std::string_view key, std::uint64_t seq, const Ticket& t) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    return renew_locked(key, seq, t, current_epochs_locked(t), now) != nullptr;
}

std::vector<std::optional<hep::BufferView>> LeaseCache::renew_many(
    std::span<const std::string_view> keys, std::uint64_t seq, const Ticket& t) {
    std::vector<std::optional<hep::BufferView>> renewed(keys.size());
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const TicketEpochs live = current_epochs_locked(t);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (const Entry* e = renew_locked(keys[i], seq, t, live, now)) renewed[i] = e->value;
    }
    return renewed;
}

LeaseCache::TicketEpochs LeaseCache::current_epochs_locked(const Ticket& t) {
    // The ticket was captured before the seq probe. If either epoch moved
    // since — a mutation, or a failover promotion demoting the target the
    // probe asked — the probe's answer may have come from a stale primary;
    // nothing is renewed and the caller refetches from the current one.
    const auto db_ep = db_epochs_.find(t.db_id);
    const auto tg_ep = target_epochs_.find(t.target);
    if (db_ep == db_epochs_.end() || tg_ep == target_epochs_.end() ||
        db_ep->second != t.db_epoch || tg_ep->second != t.target_epoch) {
        return {};
    }
    return {&db_ep->second, &tg_ep->second};
}

const LeaseCache::Entry* LeaseCache::renew_locked(std::string_view key, std::uint64_t seq,
                                                  const Ticket& t, const TicketEpochs& live,
                                                  Clock::time_point now) {
    if (live.db == nullptr) return nullptr;
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    Entry& e = *it->second;
    // The entry must have been filled from the ticket's db and target, at
    // the ticket's epochs, with the seq the probe just confirmed.
    if (e.seq != seq || e.db_epoch_now != live.db || e.target_epoch_now != live.target ||
        e.db_epoch != t.db_epoch || e.target_epoch != t.target_epoch) {
        return nullptr;
    }
    e.filled_at = now;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++counters_.renewals;
    return &e;
}

void LeaseCache::erase(std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) unlink_locked(it->second);
}

void LeaseCache::bump_db(const std::string& db_id) {
    std::lock_guard<std::mutex> lock(mu_);
    ++db_epochs_[db_id];
    ++counters_.invalidations;
}

void LeaseCache::bump_target(const std::string& target) {
    std::lock_guard<std::mutex> lock(mu_);
    ++target_epochs_[target];
    ++counters_.invalidations;
}

void LeaseCache::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    bytes_ = 0;
}

std::size_t LeaseCache::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

std::size_t LeaseCache::bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

LeaseCache::Counters LeaseCache::counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

json::Value LeaseCache::stats_json() const {
    Counters c;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        c = counters_;
        entries = lru_.size();
        bytes = bytes_;
    }
    json::Value out = json::Value::make_object();
    out["enabled"] = opts_.enabled;
    out["bypass"] = bypass();
    out["entries"] = static_cast<std::int64_t>(entries);
    out["bytes"] = static_cast<std::int64_t>(bytes);
    out["capacity_bytes"] = static_cast<std::int64_t>(opts_.capacity_bytes);
    out["lease_ms"] = static_cast<std::int64_t>(opts_.lease_ms);
    out["hits"] = c.hits;
    out["misses"] = c.misses;
    out["fills"] = c.fills;
    out["evictions"] = c.evictions;
    out["invalidations"] = c.invalidations;
    out["stale_drops"] = c.stale_drops;
    out["lease_expiries"] = c.lease_expiries;
    out["renewals"] = c.renewals;
    out["hit_latency_ms"] = hit_latency_.to_json();
    out["miss_latency_ms"] = miss_latency_.to_json();
    return out;
}

void LeaseCache::unlink_locked(List::iterator it) {
    bytes_ -= entry_bytes(*it);
    index_.erase(it->key);
    lru_.erase(it);
}

void LeaseCache::evict_locked() {
    while (!lru_.empty() &&
           (bytes_ > opts_.capacity_bytes || lru_.size() > opts_.max_entries)) {
        ++counters_.evictions;
        unlink_locked(std::prev(lru_.end()));
    }
}

}  // namespace hep::cache
