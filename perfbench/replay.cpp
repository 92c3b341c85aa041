#include "replay.hpp"

#include <random>

#include "hepnos/keys.hpp"
#include "nova/selection.hpp"
#include "serial/archive.hpp"

namespace perfbench {

using namespace hep;

std::vector<SampleEvent> sample_events(const hepnos::DataSet& ds, const nova::Generator& gen,
                                       std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed ^ 0x5eedfeedull);
    std::vector<SampleEvent> out;
    const auto files = gen.config().num_files;
    for (std::size_t i = 0; i < n; ++i) {
        const auto fc = gen.file_coordinates(rng() % files);
        if (fc.num_events == 0) continue;
        const auto ev = rng() % fc.num_events;
        SampleEvent s;
        s.rec = gen.make_event(fc.run, fc.subrun, ev);
        s.container = hepnos::event_key(ds.uuid(), fc.run, fc.subrun, ev);
        s.key = hepnos::product_key(s.container, nova::kSliceLabel,
                                    hepnos::product_type_name<std::vector<nova::Slice>>());
        s.bytes = product_bytes(s.rec);
        out.push_back(std::move(s));
    }
    return out;
}

namespace {

double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

void replay_layers(RunResult& r, const hepnos::DataStore& store, Deployment& dep,
                   const std::vector<SampleEvent>& sample) {
    auto& impl = *store.impl();
    std::map<std::string, yokan::lsm::LsmDb*> lsm_by_name;
    for (const auto& d : dep.dbs("products")) lsm_by_name[d.name] = d.lsm;

    // yokan: point gets through the client handle the hepnos client routes to.
    Histogram get_ns, lsm_ns;
    std::map<std::string, std::pair<yokan::DatabaseHandle, std::vector<const SampleEvent*>>> by_db;
    for (const auto& s : sample) {
        const auto& h = impl.locate(hepnos::Role::kProducts, s.container);
        auto& slot = by_db[h.name()];
        slot.first = h;
        slot.second.push_back(&s);
        const auto t0 = Clock::now();
        auto v = h.get_view(s.key);
        get_ns.record(ns_between(t0, Clock::now()));
        check(v.ok() && v->sv() == s.bytes, "yokan get_view returned wrong bytes for a sampled key");
        // lsm: the backend alone, no RPC.
        auto* lsm = lsm_by_name[h.name()];
        check(lsm != nullptr, "no lsm database named " + h.name());
        const auto t1 = Clock::now();
        auto lv = lsm->get_view(s.key);
        lsm_ns.record(ns_between(t1, Clock::now()));
        check(lv.ok(), "lsm get_view failed for a sampled key");
    }
    r.put("yokan.get_p50_us", get_ns.quantile(0.5) / 1000.0, "us");
    r.put("lsm.get_us", lsm_ns.quantile(0.5) / 1000.0, "us");

    // yokan: batched gets, key listing and the packed put, per key/item.
    std::int64_t multi_ns = 0, list_ns = 0, put_ns = 0;
    std::uint64_t multi_keys = 0, listed = 0, put_items = 0;
    for (auto& [name, slot] : by_db) {
        auto& [h, events] = slot;
        for (std::size_t i = 0; i < events.size(); i += 64) {
            std::vector<std::string> keys;
            for (std::size_t j = i; j < std::min(events.size(), i + 64); ++j) {
                keys.push_back(events[j]->key);
            }
            const auto t0 = Clock::now();
            auto got = h.get_multi_views(keys);
            multi_ns += ns_between(t0, Clock::now());
            check(got.ok() && got->size() == keys.size(), "yokan get_multi failed");
            for (std::size_t j = 0; j < keys.size(); ++j) {
                check((*got)[j].has_value() && (*got)[j]->sv() == events[i + j]->bytes,
                      "yokan get_multi returned wrong bytes");
            }
            multi_keys += keys.size();
        }
        std::string after;
        for (int page = 0; page < 16; ++page) {
            const auto t0 = Clock::now();
            auto keys = h.list_keys(after, "", 128);
            list_ns += ns_between(t0, Clock::now());
            check(keys.ok(), "yokan list_keys failed");
            if (keys->empty()) break;
            listed += keys->size();
            after = keys->back();
        }
        std::vector<yokan::BatchItem> items;
        for (std::size_t j = 0; j < std::min<std::size_t>(events.size(), 64); ++j) {
            items.push_back({"~perfbench/replay/" + std::to_string(j),
                             hep::Buffer::adopt(std::string(events[j]->bytes))});
        }
        const auto t0 = Clock::now();
        auto put = h.put_multi(items);
        put_ns += ns_between(t0, Clock::now());
        check(put.ok(), "yokan packed put_multi failed");
        put_items += items.size();
    }
    if (multi_keys) r.put("yokan.get_multi_us_per_key", us(multi_ns) / multi_keys, "us");
    if (listed) r.put("yokan.list_keys_us_per_key", us(list_ns) / listed, "us");
    if (put_items) r.put("yokan.put_packed_us_per_item", us(put_ns) / put_items, "us");

    // serial and nova: the same events through the serializer and the cut.
    std::int64_t ser_ns = 0, de_ns = 0, cut_ns = 0;
    std::uint64_t slices = 0, kept = 0;
    nova::Selector selector;
    for (const auto& s : sample) {
        const auto t0 = Clock::now();
        auto buf = serial::to_buffer(s.rec.slices);
        const auto t1 = Clock::now();
        std::vector<nova::Slice> back;
        serial::from_string(buf.sv(), back);
        const auto t2 = Clock::now();
        check(back == s.rec.slices, "serializer round trip changed a product");
        const auto accepted = selector.selected_ids(s.rec).size();
        const auto t3 = Clock::now();
        kept += accepted;
        ser_ns += ns_between(t0, t1);
        de_ns += ns_between(t1, t2);
        cut_ns += ns_between(t2, t3);
        slices += s.rec.slices.size();
    }
    r.info["replay_accepted_slices"] = kept;
    if (slices) {
        const double n = static_cast<double>(slices);
        r.put("serial.serialize_ns_per_slice", static_cast<double>(ser_ns) / n, "ns");
        if (!r.layer.count("serial.deserialize_ns_per_slice")) {
            r.put("serial.deserialize_ns_per_slice", static_cast<double>(de_ns) / n, "ns");
        }
        if (!r.layer.count("nova.cut_ns_per_slice")) {
            r.put("nova.cut_ns_per_slice", static_cast<double>(cut_ns) / n, "ns");
        }
    }

    // margo: the no-op RPC, unless the workload timed it under its own load.
    if (!r.layer.count("margo.echo_rtt_p50_us")) {
        define_echo(dep);
        auto h = echo_rtt(impl.engine(), dep, 2000);
        r.put("margo.echo_rtt_p50_us", h.quantile(0.5) / 1000.0, "us");
        r.put("margo.echo_rtt_p99_us", h.quantile(0.99) / 1000.0, "us");
        r.info["margo_echo_samples"] = h.count();
    }
}

void lsm_read_ratios(RunResult& r, const LsmTotals& b, const LsmTotals& a) {
    const double gets = static_cast<double>(a.gets - b.gets);
    const double lookups =
        static_cast<double>((a.cache_hits - b.cache_hits) + (a.cache_misses - b.cache_misses));
    if (lookups > 0) {
        r.put("lsm.block_cache_hit_ratio",
              static_cast<double>(a.cache_hits - b.cache_hits) / lookups, "ratio");
    }
    if (gets > 0) {
        r.put("lsm.disk_bytes_per_get", static_cast<double>(a.disk_bytes - b.disk_bytes) / gets,
              "B");
        r.put("lsm.decompressions_per_get",
              static_cast<double>(a.decompressions - b.decompressions) / gets, "count");
    }
}

}  // namespace perfbench
