// Tests for the hot-product read cache tier (src/cache): LRU bound and
// eviction order, lease/epoch freshness, the batched page probe and bulk
// lease renewal (load_products_bulk, PEP, Prefetcher), read-through fills at
// the client,
// synchronous invalidation on put/erase/write-batch-flush (same-client
// read-after-write is never stale), the dedicated cache-provider tier over
// loopback, and failover-driven invalidation.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/lease_cache.hpp"
#include "cache/provider.hpp"
#include "hepnos/hepnos.hpp"
#include "hepnos/prefetcher.hpp"
#include "symbio/provider.hpp"
#include "test_service.hpp"

namespace {

using namespace hep;
using namespace hep::hepnos;

hep::BufferView view_of(const std::string& s) {
    return hep::Buffer::adopt(std::string(s)).view(0, s.size());
}

// ---------------------------------------------------------------- unit level

TEST(LeaseCacheTest, LruBoundEvictsLeastRecentlyUsed) {
    cache::CacheOptions opts;
    opts.max_entries = 4;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    c.fill("a", view_of("1"), 1, t);
    c.fill("b", view_of("2"), 1, t);
    c.fill("c", view_of("3"), 1, t);
    c.fill("d", view_of("4"), 1, t);
    EXPECT_EQ(c.size(), 4u);
    // Touch "a" so "b" becomes the LRU tail, then overflow.
    EXPECT_EQ(c.lookup("a").state, cache::LeaseCache::LookupState::kHit);
    c.fill("e", view_of("5"), 1, t);
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.counters().evictions, 1u);
    EXPECT_EQ(c.lookup("b").state, cache::LeaseCache::LookupState::kMiss);
    EXPECT_EQ(c.lookup("a").state, cache::LeaseCache::LookupState::kHit);
    EXPECT_EQ(c.lookup("e").state, cache::LeaseCache::LookupState::kHit);
}

TEST(LeaseCacheTest, ByteCapacityBoundsResidentBytes) {
    cache::CacheOptions opts;
    opts.capacity_bytes = 64;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    const std::string big(30, 'x');
    for (int i = 0; i < 8; ++i) c.fill("k" + std::to_string(i), view_of(big), 1, t);
    EXPECT_LE(c.bytes(), 64u);
    EXPECT_GT(c.counters().evictions, 0u);
}

TEST(LeaseCacheTest, EpochBumpsInvalidateAndTicketsCatchRaces) {
    cache::LeaseCache c;
    auto t = c.ticket("db", "target");
    c.fill("k", view_of("v"), 1, t);
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kHit);

    // A mutation bumps the db epoch: the entry dies at the next lookup.
    c.bump_db("db");
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kMiss);
    EXPECT_GE(c.counters().stale_drops, 1u);

    // The fill/invalidate race: epochs captured before the read make an
    // entry inserted AFTER the mutation born-stale.
    auto stale_ticket = c.ticket("db", "target");
    c.bump_db("db");  // mutation lands while the fill's read is in flight
    c.fill("k", view_of("old"), 2, stale_ticket);
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kMiss);

    // Target epochs: a failover promotion kills entries from the demoted
    // primary, entries from other targets survive.
    auto t2 = c.ticket("db", "primary-0");
    auto t3 = c.ticket("db", "primary-1");
    c.fill("x", view_of("vx"), 1, t2);
    c.fill("y", view_of("vy"), 1, t3);
    c.bump_target("primary-0");
    EXPECT_EQ(c.lookup("x").state, cache::LeaseCache::LookupState::kMiss);
    EXPECT_EQ(c.lookup("y").state, cache::LeaseCache::LookupState::kHit);
}

TEST(LeaseCacheTest, LeaseExpiryDemandsRevalidationAndRenewWorks) {
    cache::CacheOptions opts;
    opts.lease_ms = 20;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    c.fill("k", view_of("v"), 7, t);
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kHit);

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto expired = c.lookup("k");
    EXPECT_EQ(expired.state, cache::LeaseCache::LookupState::kExpired);
    EXPECT_EQ(expired.seq, 7u);
    EXPECT_EQ(std::string(expired.value.sv()), "v");

    // Owner seq unchanged: the lease renews without refetching the value.
    // The ticket is captured before the seq probe, like read_product does.
    EXPECT_TRUE(c.renew("k", 7, c.ticket("db", "t")));
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kHit);
    EXPECT_EQ(c.counters().renewals, 1u);

    // Owner seq moved: renew refuses, the caller must refetch.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(c.renew("k", 8, c.ticket("db", "t")));
}

TEST(LeaseCacheTest, RenewRefusedAfterPromotionInvalidatesTarget) {
    cache::CacheOptions opts;
    opts.lease_ms = 20;
    cache::LeaseCache c(opts);
    c.fill("k", view_of("v"), 7, c.ticket("db", "primary-0"));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kExpired);

    // The demoted-primary race: the ticket (and the seq probe it brackets)
    // targeted the old primary, then a failover promotion invalidated that
    // target. Renewing against the stale seq must be refused even though the
    // probe "confirmed" it — the promoted replica may hold newer data.
    auto stale = c.ticket("db", "primary-0");
    c.bump_target("primary-0");
    EXPECT_FALSE(c.renew("k", 7, stale));

    // And a ticket captured before any local invalidation of the entry's
    // epochs is also refused once the db epoch moves.
    c.fill("k2", view_of("v2"), 3, c.ticket("db", "primary-1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto t = c.ticket("db", "primary-1");
    c.bump_db("db");
    EXPECT_FALSE(c.renew("k2", 3, t));
}

// Tests below that expect a hit after a sleep use a lease long enough that a
// stalled test thread (sanitizer build, loaded machine) cannot expire it.
constexpr int kLongLeaseMs = 300;

TEST(LeaseCacheTest, BatchedLookupAnswersLikeSingleKeyLookups) {
    cache::CacheOptions opts;
    opts.lease_ms = kLongLeaseMs;
    cache::LeaseCache c(opts);
    c.fill("old", view_of("o"), 1, c.ticket("db", "t"));
    std::this_thread::sleep_for(std::chrono::milliseconds(kLongLeaseMs + 50));
    c.fill("fresh", view_of("f"), 2, c.ticket("db", "t"));
    c.fill("stale", view_of("s"), 2, c.ticket("db2", "t"));
    c.bump_db("db2");

    const std::vector<std::string> page{"fresh", "old", "absent", "stale"};
    const auto got = c.lookup_many(page);
    ASSERT_EQ(got.size(), page.size());
    EXPECT_EQ(got[0].state, cache::LeaseCache::LookupState::kHit);
    EXPECT_EQ(got[0].value.sv(), "f");
    EXPECT_EQ(got[1].state, cache::LeaseCache::LookupState::kExpired);
    EXPECT_EQ(got[1].seq, 1u);
    EXPECT_EQ(got[1].value.sv(), "o");
    EXPECT_EQ(got[2].state, cache::LeaseCache::LookupState::kMiss);
    EXPECT_EQ(got[3].state, cache::LeaseCache::LookupState::kMiss);  // epoch-stale: dropped
    const auto n = c.counters();
    EXPECT_EQ(n.hits, 1u);
    EXPECT_EQ(n.misses, 2u);
    EXPECT_EQ(n.lease_expiries, 1u);
    EXPECT_EQ(n.stale_drops, 1u);
    EXPECT_EQ(c.size(), 2u);
}

TEST(LeaseCacheTest, BulkRenewRenewsOnlyEntriesWithTheProbedSeq) {
    cache::CacheOptions opts;
    opts.lease_ms = kLongLeaseMs;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    c.fill("a", view_of("va"), 5, t);
    c.fill("b", view_of("vb"), 5, t);
    c.fill("c", view_of("vc"), 4, t);
    std::this_thread::sleep_for(std::chrono::milliseconds(kLongLeaseMs + 50));

    // One probe answered seq 5: a and b are current, c was filled before a
    // mutation and must be refetched, an absent key cannot be renewed.
    const std::vector<std::string_view> keys{"a", "b", "c", "absent"};
    const auto renewed = c.renew_many(keys, 5, c.ticket("db", "t"));
    ASSERT_EQ(renewed.size(), keys.size());
    ASSERT_TRUE(renewed[0].has_value());
    EXPECT_EQ(renewed[0]->sv(), "va");
    ASSERT_TRUE(renewed[1].has_value());
    EXPECT_EQ(renewed[1]->sv(), "vb");
    EXPECT_FALSE(renewed[2].has_value());
    EXPECT_FALSE(renewed[3].has_value());
    EXPECT_EQ(c.counters().renewals, 2u);
    EXPECT_EQ(c.lookup("a").state, cache::LeaseCache::LookupState::kHit);
    EXPECT_EQ(c.lookup("c").state, cache::LeaseCache::LookupState::kExpired);
}

TEST(LeaseCacheTest, BulkRenewRefusedWhenAnEpochMovedAfterTheTicket) {
    cache::CacheOptions opts;
    opts.lease_ms = 20;
    cache::LeaseCache c(opts);
    c.fill("a", view_of("va"), 7, c.ticket("db", "primary-0"));
    c.fill("b", view_of("vb"), 7, c.ticket("db", "primary-0"));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // A promotion lands between the ticket (and the probe it brackets) and
    // the renewal: the whole page is refused, not just one key.
    const std::vector<std::string_view> keys{"a", "b"};
    auto t = c.ticket("db", "primary-0");
    c.bump_target("primary-0");
    for (const auto& r : c.renew_many(keys, 7, t)) EXPECT_FALSE(r.has_value());

    // Same for a mutation bumping the db epoch after the ticket.
    c.fill("a", view_of("va"), 7, c.ticket("db", "primary-1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    t = c.ticket("db", "primary-1");
    c.bump_db("db");
    EXPECT_FALSE(c.renew_many(keys, 7, t)[0].has_value());
    EXPECT_EQ(c.counters().renewals, 0u);
}

TEST(LeaseCacheTest, OptionsFromJsonAndBypass) {
    auto cfg = json::parse(
        R"({"enabled": true, "capacity_bytes": 1024, "max_entries": 16,
            "lease_ms": 250, "bypass": true})");
    ASSERT_TRUE(cfg.ok());
    auto opts = cache::CacheOptions::from_json(*cfg);
    EXPECT_TRUE(opts.enabled);
    EXPECT_EQ(opts.capacity_bytes, 1024u);
    EXPECT_EQ(opts.max_entries, 16u);
    EXPECT_EQ(opts.lease_ms, 250u);
    EXPECT_TRUE(opts.bypass);
    // Defaults when the section is missing entirely.
    auto defaults = cache::CacheOptions::from_json(json::Value());
    EXPECT_TRUE(defaults.enabled);
    EXPECT_FALSE(defaults.bypass);
    EXPECT_EQ(defaults.lease_ms, 1000u);

    cache::LeaseCache c(opts);
    EXPECT_TRUE(c.bypass());
    c.set_bypass(false);
    EXPECT_FALSE(c.bypass());
}

// ------------------------------------------------------------- service level

std::uint64_t total_product_gets(test_util::TestService& service) {
    std::uint64_t gets = 0;
    for (auto& server : service.servers) {
        auto* provider = server->find_provider(1);
        for (const auto& name : provider->database_names()) {
            if (name.rfind("products", 0) == 0) {
                gets += provider->find_database(name)->stats().gets;
            }
        }
    }
    return gets;
}

class CacheServiceTest : public ::testing::Test {
  protected:
    static test_util::TestServiceOptions make_options() {
        test_util::TestServiceOptions opts{2, 2, "map"};
        opts.monitoring = true;
        // A long lease keeps hit/miss accounting deterministic; the
        // invalidation paths are what guarantee freshness.
        opts.cache = *json::parse(R"({"lease_ms": 60000})");
        return opts;
    }

    CacheServiceTest() : service_(make_options()) {
        store_ = DataStore::connect(service_.network, service_.connection);
    }

    Event make_event(const std::string& path) {
        return store_.createDataSet(path).createRun(1).createSubRun(2).createEvent(3);
    }

    test_util::TestService service_;
    DataStore store_;
};

TEST_F(CacheServiceTest, ReadThroughFillThenHitSkipsTheWire) {
    Event ev = make_event("ct/fill");
    const std::vector<double> stored{1.5, 2.5, 3.5};
    ev.store("d", stored);

    auto cache = store_.impl()->product_cache();
    ASSERT_NE(cache, nullptr);

    std::vector<double> loaded;
    ASSERT_TRUE(ev.load("d", loaded));
    EXPECT_EQ(loaded, stored);
    const auto after_first = cache->counters();
    EXPECT_GE(after_first.fills, 1u);

    // The second read is a cache hit: no products database sees a get.
    const std::uint64_t wire_before = total_product_gets(service_);
    std::vector<double> again;
    ASSERT_TRUE(ev.load("d", again));
    EXPECT_EQ(again, stored);
    EXPECT_EQ(total_product_gets(service_), wire_before);
    EXPECT_GT(cache->counters().hits, after_first.hits);
    EXPECT_GT(cache->hit_latency().count(), 0u);

    // The client metrics registry exposes the same counters.
    auto snap = store_.impl()->metrics().snapshot();
    EXPECT_GE(snap["sources"]["cache/client"]["fills"].as_int(), 1);
}

TEST_F(CacheServiceTest, ReadAfterWriteNeverStale) {
    Event ev = make_event("ct/raw");
    std::vector<std::uint64_t> v1{1, 2, 3};
    std::vector<std::uint64_t> v2{4, 5, 6, 7};
    ev.store("p", v1);
    std::vector<std::uint64_t> got;
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v1);

    // Direct put overwrites and invalidates synchronously: the very next
    // load sees the new value, lease notwithstanding.
    ev.store("p", v2);
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v2);

    // Same guarantee through a write batch: visible right after flush().
    {
        WriteBatch batch(store_.impl());
        ev.store("p", v1, &batch);
        batch.flush();
    }
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v1);

    // And through an async write batch after wait().
    {
        AsyncWriteBatch batch(store_.impl());
        ev.store("p", v2, &batch);
        batch.flush();
        batch.wait();
    }
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v2);

    // Erase invalidates too: the cached copy cannot resurrect the product.
    EXPECT_TRUE(ev.eraseProduct<std::vector<std::uint64_t>>("p"));
    EXPECT_FALSE(ev.load("p", got));
    EXPECT_FALSE(ev.eraseProduct<std::vector<std::uint64_t>>("p"));
}

TEST_F(CacheServiceTest, CachedReadsBitIdenticalToDirectUnderMutation) {
    Event ev = make_event("ct/ident");
    auto cache = store_.impl()->product_cache();
    ASSERT_NE(cache, nullptr);
    for (std::uint64_t v = 0; v < 32; ++v) {
        std::vector<std::uint64_t> payload{v, v * 31, v ^ 0x5a5a};
        ev.store("m", payload);
        // Cached read (miss+fill after the invalidation, then a pure hit).
        std::vector<std::uint64_t> cached1, cached2, direct;
        ASSERT_TRUE(ev.load("m", cached1));
        ASSERT_TRUE(ev.load("m", cached2));
        // Direct read with the cache bypassed.
        cache->set_bypass(true);
        ASSERT_TRUE(ev.load("m", direct));
        cache->set_bypass(false);
        EXPECT_EQ(cached1, payload);
        EXPECT_EQ(cached2, payload);
        EXPECT_EQ(direct, payload);
    }
}

TEST_F(CacheServiceTest, BypassModeGoesStraightToTheOwner) {
    Event ev = make_event("ct/bypass");
    ev.store("b", std::uint64_t{42});
    auto cache = store_.impl()->product_cache();
    cache->set_bypass(true);
    const auto before = cache->counters();
    std::uint64_t out = 0;
    ASSERT_TRUE(ev.load("b", out));
    ASSERT_TRUE(ev.load("b", out));
    EXPECT_EQ(out, 42u);
    const auto after = cache->counters();
    EXPECT_EQ(after.fills, before.fills);
    EXPECT_EQ(after.hits, before.hits);
    cache->set_bypass(false);
}

TEST_F(CacheServiceTest, PrefetcherFillsAndUsesTheCache) {
    DataSet ds = store_.createDataSet("ct/prefetch");
    auto sr = ds.createRun(1).createSubRun(1);
    for (std::uint64_t e = 0; e < 16; ++e) {
        sr.createEvent(e).store("n", e);
    }
    Prefetcher prefetcher(store_, 8);
    prefetcher.fetch_product<std::uint64_t>("n");
    std::uint64_t sum = 0;
    prefetcher.for_each_event(sr, [&](const Event& ev, const ProductCache& cache) {
        std::uint64_t n = 0;
        ASSERT_TRUE(cache.load(ev, "n", n));
        sum += n;
    });
    EXPECT_EQ(sum, 16u * 15u / 2u);
    EXPECT_GE(store_.impl()->product_cache()->counters().fills, 16u);

    // A second sweep is served from the client cache: no product gets.
    const std::uint64_t wire_before = total_product_gets(service_);
    prefetcher.for_each_event(sr, [&](const Event& ev, const ProductCache& cache) {
        std::uint64_t n = 0;
        ASSERT_TRUE(cache.load(ev, "n", n));
    });
    EXPECT_EQ(total_product_gets(service_), wire_before);
}

// ------------------------------------------------- lease expiry (service)

TEST(CacheLeaseServiceTest, ExpiredLeaseRenewsWithoutRefetchingValue) {
    test_util::TestServiceOptions opts{1, 1, "map"};
    opts.cache = *json::parse(R"({"lease_ms": 30})");
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);

    Event ev = store.createDataSet("lease").createRun(1).createSubRun(1).createEvent(1);
    ev.store("v", std::uint64_t{11});
    std::uint64_t out = 0;
    ASSERT_TRUE(ev.load("v", out));

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // The value is unchanged: the read revalidates with one seq probe (no
    // product get) and renews the lease.
    const std::uint64_t wire_before = total_product_gets(service);
    ASSERT_TRUE(ev.load("v", out));
    EXPECT_EQ(out, 11u);
    EXPECT_EQ(total_product_gets(service), wire_before);
    auto counters = store.impl()->product_cache()->counters();
    EXPECT_GE(counters.lease_expiries, 1u);
    EXPECT_GE(counters.renewals, 1u);
}

// ------------------------------------- bulk loads: batched probe + bulk renew

/// One server, one products database, a short lease: every bulk read path
/// (load_products_bulk, the PEP, the Prefetcher) sees its leases expire
/// between passes.
class CacheBulkLeaseTest : public ::testing::Test {
  protected:
    static constexpr std::uint64_t kEvents = 32;
    static constexpr int kLeaseMs = 40;

    static test_util::TestServiceOptions make_options() {
        test_util::TestServiceOptions opts;
        opts.dbs_per_role = 1;
        opts.cache = json::Value::make_object();
        opts.cache["lease_ms"] = kLeaseMs;
        return opts;
    }

    CacheBulkLeaseTest() : service_(make_options()) {
        store_ = DataStore::connect(service_.network, service_.connection);
        SubRun sr = store_.createDataSet("bulk").createRun(1).createSubRun(1);
        WriteBatch batch(store_.impl());
        for (std::uint64_t e = 0; e < kEvents; ++e) {
            Event ev = sr.createEvent(batch, e);
            ev.store(batch, "n", e);
            keys_.push_back(product_key(ev.container_key(), "n",
                                        product_type_name<std::uint64_t>()));
        }
    }

    /// Overwrite every product with e + delta through a WriteBatch of `store`.
    static void rewrite(DataStore& store, std::uint64_t delta) {
        SubRun sr = store["bulk"][1][1];
        WriteBatch batch(store.impl());
        for (std::uint64_t e = 0; e < kEvents; ++e) sr[e].store(batch, "n", e + delta);
    }

    static void outlive_lease() {
        std::this_thread::sleep_for(std::chrono::milliseconds(kLeaseMs * 2));
    }

    std::vector<std::uint64_t> bulk_load(const yokan::proto::ReadPin* pin = nullptr) {
        auto values = store_.impl()->load_products_bulk(0, keys_, pin);
        EXPECT_TRUE(values.ok()) << values.status().to_string();
        std::vector<std::uint64_t> out;
        if (!values.ok()) return out;
        for (const auto& v : *values) {
            std::uint64_t n = ~0ull;
            if (v) serial::from_string(v->sv(), n);
            out.push_back(n);
        }
        return out;
    }

    static std::vector<std::uint64_t> expected(std::uint64_t delta) {
        std::vector<std::uint64_t> out;
        for (std::uint64_t e = 0; e < kEvents; ++e) out.push_back(e + delta);
        return out;
    }

    /// One PEP pass over the dataset (2 ranks, several reader pages):
    /// event number -> prefetched product.
    std::map<std::uint64_t, std::uint64_t> pep_pass() {
        std::mutex mu;
        std::map<std::uint64_t, std::uint64_t> seen;
        mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
            ParallelEventProcessorOptions popts;
            popts.input_batch_size = 8;
            popts.share_batch_size = 4;
            ParallelEventProcessor pep(store_, comm, popts);
            pep.prefetch<std::uint64_t>("n");
            pep.process(store_["bulk"], [&](const Event& ev, const ProductCache& cache) {
                std::uint64_t n = ~0ull;
                EXPECT_TRUE(cache.load(ev, "n", n));
                std::lock_guard<std::mutex> lock(mu);
                seen[ev.number()] = n;
            });
        });
        return seen;
    }

    std::map<std::uint64_t, std::uint64_t> prefetcher_pass() {
        Prefetcher prefetcher(store_, /*page_size=*/8);
        prefetcher.fetch_product<std::uint64_t>("n");
        std::map<std::uint64_t, std::uint64_t> seen;
        prefetcher.for_each_event(store_["bulk"], [&](const Event& ev, const ProductCache& c) {
            std::uint64_t n = ~0ull;
            EXPECT_TRUE(c.load(ev, "n", n));
            seen[ev.number()] = n;
        });
        return seen;
    }

    static std::map<std::uint64_t, std::uint64_t> expected_map(std::uint64_t delta) {
        std::map<std::uint64_t, std::uint64_t> out;
        for (std::uint64_t e = 0; e < kEvents; ++e) out[e] = e + delta;
        return out;
    }

    test_util::TestService service_;
    DataStore store_;
    std::vector<std::string> keys_;
};

TEST_F(CacheBulkLeaseTest, UnchangedSeqRenewsWithoutGetMulti) {
    EXPECT_EQ(bulk_load(), expected(0));
    auto cache = store_.impl()->product_cache();
    const auto before = cache->counters();
    outlive_lease();

    // Every lease expired: the page costs one seq probe (a single round
    // trip, no bulk transfer) and no product get.
    const std::uint64_t gets_before = total_product_gets(service_);
    const auto net_before = service_.network.stats();
    EXPECT_EQ(bulk_load(), expected(0));
    const auto net_after = service_.network.stats();
    EXPECT_EQ(total_product_gets(service_), gets_before);
    EXPECT_EQ(net_after.messages - net_before.messages, 2u);
    EXPECT_EQ(net_after.bulk_transfers, net_before.bulk_transfers);
    const auto after = cache->counters();
    EXPECT_EQ(after.lease_expiries - before.lease_expiries, kEvents);
    EXPECT_EQ(after.renewals - before.renewals, kEvents);
    EXPECT_EQ(after.fills, before.fills);
}

TEST_F(CacheBulkLeaseTest, MovedSeqRefetches) {
    EXPECT_EQ(bulk_load(), expected(0));
    // Another client rewrites the products: this client's epochs do not
    // move, so only the seq probe can tell the leases are out of date.
    auto writer = DataStore::connect(service_.network, service_.connection);
    rewrite(writer, 100);
    outlive_lease();

    const std::uint64_t gets_before = total_product_gets(service_);
    const auto renewals_before = store_.impl()->product_cache()->counters().renewals;
    EXPECT_EQ(bulk_load(), expected(100));
    EXPECT_EQ(total_product_gets(service_) - gets_before, kEvents);
    EXPECT_EQ(store_.impl()->product_cache()->counters().renewals, renewals_before);
}

TEST_F(CacheBulkLeaseTest, PinnedBulkLoadsBypassTheCache) {
    auto snap = store_.impl()->snapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    EXPECT_EQ(bulk_load(), expected(0));  // unpinned: fills the cache
    auto cache = store_.impl()->product_cache();
    const auto before = cache->counters();
    const std::uint64_t gets_before = total_product_gets(service_);
    const auto* pin = &snap->pin(Role::kProducts, 0);
    EXPECT_EQ(bulk_load(pin), expected(0));
    outlive_lease();
    EXPECT_EQ(bulk_load(pin), expected(0));
    // Both pinned loads went to the owner although every product was cached;
    // the cache was neither probed, renewed nor filled.
    EXPECT_EQ(total_product_gets(service_) - gets_before, 2 * kEvents);
    const auto after = cache->counters();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.fills, before.fills);
    EXPECT_EQ(after.lease_expiries, before.lease_expiries);
    EXPECT_EQ(after.renewals, before.renewals);
}

TEST_F(CacheBulkLeaseTest, PepPassAfterExpiryRenewsAndSeesWrites) {
    EXPECT_EQ(pep_pass(), expected_map(0));
    auto cache = store_.impl()->product_cache();
    outlive_lease();
    const std::uint64_t gets_before = total_product_gets(service_);
    const auto renewals_before = cache->counters().renewals;
    EXPECT_EQ(pep_pass(), expected_map(0));
    EXPECT_EQ(total_product_gets(service_), gets_before);
    EXPECT_EQ(cache->counters().renewals - renewals_before, kEvents);

    rewrite(store_, 1000);
    EXPECT_EQ(pep_pass(), expected_map(1000));
}

TEST_F(CacheBulkLeaseTest, PrefetcherPassAfterExpiryRenewsAndSeesWrites) {
    EXPECT_EQ(prefetcher_pass(), expected_map(0));
    auto cache = store_.impl()->product_cache();
    outlive_lease();
    const std::uint64_t gets_before = total_product_gets(service_);
    const auto renewals_before = cache->counters().renewals;
    EXPECT_EQ(prefetcher_pass(), expected_map(0));
    EXPECT_EQ(total_product_gets(service_), gets_before);
    EXPECT_EQ(cache->counters().renewals - renewals_before, kEvents);

    rewrite(store_, 1000);
    EXPECT_EQ(prefetcher_pass(), expected_map(1000));
}

// --------------------------------------------------------- cache-tier level

TEST(CacheTierTest, MissFillHitOverLoopbackAndInvalidation) {
    test_util::TestServiceOptions opts{2, 2, "map"};
    opts.cache_tier = true;
    opts.monitoring = true;
    opts.cache = *json::parse(R"({"lease_ms": 60000})");
    test_util::TestService service(opts);

    // The merged connection document advertises every cache node.
    ASSERT_TRUE(service.connection["cache_tier"].is_array());
    EXPECT_EQ(service.connection["cache_tier"].size(), 2u);

    auto writer = DataStore::connect(service.network, service.connection);
    ASSERT_NE(writer.impl()->tier(), nullptr);
    EXPECT_EQ(writer.impl()->tier()->node_count(), 2u);

    Event ev = writer.createDataSet("tier").createRun(1).createSubRun(1).createEvent(1);
    const std::vector<std::uint64_t> v1{10, 20, 30};
    ev.store("t", v1);

    auto tier_counters = [&service]() {
        cache::LeaseCache::Counters total;
        for (auto& server : service.servers) {
            auto* cp = server->find_cache_provider(90);
            if (!cp) continue;
            const auto c = cp->table().counters();
            total.hits += c.hits;
            total.misses += c.misses;
            total.fills += c.fills;
        }
        return total;
    };

    // First read anywhere: the tier node misses and fills from the owner.
    std::vector<std::uint64_t> out;
    ASSERT_TRUE(ev.load("t", out));
    EXPECT_EQ(out, v1);
    const auto after_fill = tier_counters();
    EXPECT_GE(after_fill.fills, 1u);

    // A different client (cold local cache) is served BY the tier: tier hits
    // move, owner product gets do not.
    auto reader = DataStore::connect(service.network, service.connection);
    Event rev = reader["tier"][1][1][1];
    const std::uint64_t wire_before = total_product_gets(service);
    ASSERT_TRUE(rev.load("t", out));
    EXPECT_EQ(out, v1);
    EXPECT_EQ(total_product_gets(service), wire_before);
    EXPECT_GT(tier_counters().hits, after_fill.hits);

    // A mutation invalidates the tier copy synchronously: the writer's next
    // read refills, and yet another cold client sees the new value.
    const std::vector<std::uint64_t> v2{7};
    ev.store("t", v2);
    ASSERT_TRUE(ev.load("t", out));
    EXPECT_EQ(out, v2);
    auto reader2 = DataStore::connect(service.network, service.connection);
    ASSERT_TRUE(reader2["tier"][1][1][1].load("t", out));
    EXPECT_EQ(out, v2);

    // Tier health is visible via symbio on each hosting process.
    auto snap = symbio::fetch(writer.impl()->engine(), "hepnos-server-0", 99);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    EXPECT_FALSE((*snap)["sources"]["cache/90"].is_null());
}

// ------------------------------------------------------- failover invalidation

TEST(CacheFailoverTest, PromotionDropsEntriesFilledFromDemotedPrimary) {
    test_util::TestServiceOptions opts{2, 2, "map"};
    opts.replication_factor = 2;
    opts.cache = *json::parse(R"({"lease_ms": 60000})");
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);

    Event ev = store.createDataSet("fo").createRun(1).createSubRun(1).createEvent(1);
    const std::vector<std::uint64_t> value{3, 1, 4, 1, 5};
    ev.store("f", value);
    std::vector<std::uint64_t> out;
    ASSERT_TRUE(ev.load("f", out));  // cached, filled from the current primary
    EXPECT_EQ(out, value);

    auto cache = store.impl()->product_cache();
    const auto invalidations_before = cache->counters().invalidations;

    // Partition the primary that served the fill and force the client to
    // notice (a non-cached op on the same database drives the retry loop).
    const auto& db = store.impl()->locate(Role::kProducts, ev.container_key());
    ASSERT_NE(db.failover(), nullptr);
    const std::string primary_server = db.failover()->target(db.failover()->primary()).server;
    service.network.set_partitioned(primary_server, true);
    EXPECT_TRUE((ev.hasProduct<std::vector<std::uint64_t>>("f")));
    EXPECT_GT(store.impl()->failover_counters()->failovers.load(), 0u);

    // The promotion listener bumped the demoted target's epoch: the cached
    // entry is dead, and the re-read (from the backup) returns the same
    // bytes the primary acknowledged.
    EXPECT_GT(cache->counters().invalidations, invalidations_before);
    ASSERT_TRUE(ev.load("f", out));
    EXPECT_EQ(out, value);
    EXPECT_GE(cache->counters().stale_drops, 1u);

    service.network.set_partitioned(primary_server, false);
}

}  // namespace
